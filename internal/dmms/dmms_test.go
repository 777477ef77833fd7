package dmms

import (
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/federation"
	"repro/internal/market"
	"repro/internal/relation"
)

// mkServer serves an in-memory one-shard market under design; epochs run
// only when the test triggers them.
func mkServer(t *testing.T, design *market.Design) (*httptest.Server, *Client) {
	t.Helper()
	m, err := federation.Open(federation.Config{
		Engine:   engine.Config{Shards: 2},
		Platform: core.Options{CustomDesign: design},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewMarketServer(m))
	t.Cleanup(func() {
		srv.Close()
		m.Stop()
	})
	return srv, NewClient(srv.URL)
}

func postedDesign() *market.Design {
	return &market.Design{
		Label: "posted", Mechanism: market.PostedPrice{P: 40},
		Allocator: market.Uniform{}, ArbiterFee: 0.1,
	}
}

func mkRel() *relation.Relation {
	r := relation.New("sales", relation.NewSchema(
		relation.Col("region", relation.KindString),
		relation.Col("amount", relation.KindFloat),
	))
	for i := 0; i < 60; i++ {
		r.MustAppend(relation.String_("r"+string(rune('a'+i%4))), relation.Float(float64(i)))
	}
	return r
}

// mustTicket returns a checker that fails the test on a submission error
// and passes the ticket through.
func mustTicket(t *testing.T) func(string, error) string {
	return func(ticket string, err error) string {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return ticket
	}
}

// settle runs one epoch and waits for every ticket to reach a terminal
// status, returning them in order.
func settle(t *testing.T, c *Client, tickets ...string) []engine.Ticket {
	t.Helper()
	if _, _, err := c.TriggerEpoch(); err != nil {
		t.Fatal(err)
	}
	out := make([]engine.Ticket, len(tickets))
	for i, id := range tickets {
		tk, err := c.WaitTicket(id, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = tk
	}
	return out
}

func TestHTTPEndToEnd(t *testing.T) {
	_, c := mkServer(t, postedDesign())
	must := mustTicket(t)
	regs := settle(t, c,
		must(c.RegisterAsync("s1", 0)),
		must(c.RegisterAsync("b1", 500)),
		must(c.RegisterAsync("b1", 500)),
		must(c.ShareDatasetAsync("s1", "sales", mkRel(), "open")))
	if regs[0].Status != engine.TicketDone || regs[1].Status != engine.TicketDone || regs[3].Status != engine.TicketDone {
		t.Fatalf("registrations and share: %+v", regs)
	}
	if regs[2].Status != engine.TicketFailed {
		t.Errorf("double registration must fail its ticket: %+v", regs[2])
	}
	req := must(c.SubmitRequestAsync(RequestReq{
		Buyer:   "b1",
		Columns: []string{"region", "amount"},
		Task:    TaskSpec{Kind: "coverage", WantRows: 50},
		Curve:   []CurvePointSpec{{MinSatisfaction: 0.9, Price: 60}},
	}))
	tk := settle(t, c, req)[0]
	if tk.Status != engine.TicketDone || tk.Price != 40 || tk.TxID == "" {
		t.Fatalf("request = %+v, want done at the posted 40", tk)
	}
	// History omits payload and carries the settled transaction.
	hist, err := c.History()
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 1 || hist[0].ID != tk.TxID || hist[0].Buyer != "b1" || hist[0].Price != 40 {
		t.Errorf("history = %+v", hist)
	}
	bal, err := c.Balance("b1")
	if err != nil {
		t.Fatal(err)
	}
	if bal != 460 {
		t.Errorf("balance = %v", bal)
	}
	sbal, _ := c.Balance("s1")
	if sbal != 36 {
		t.Errorf("seller balance = %v, want 90%% of 40", sbal)
	}
}

func TestHTTPExPost(t *testing.T) {
	d := &market.Design{
		Label: "xp", Elicitation: market.ElicitExPost,
		Mechanism: market.ExPost{Deposit: 100, AuditProb: 0, Penalty: 1},
		Allocator: market.Uniform{},
	}
	_, c := mkServer(t, d)
	must := mustTicket(t)
	settle(t, c,
		must(c.RegisterAsync("s1", 0)),
		must(c.RegisterAsync("b1", 500)),
		must(c.ShareDatasetAsync("s1", "sales", mkRel(), "open")))
	tk := settle(t, c, must(c.SubmitRequestAsync(RequestReq{
		Buyer: "b1", Columns: []string{"region", "amount"},
		Task:  TaskSpec{Kind: "coverage", WantRows: 10},
		Curve: []CurvePointSpec{{MinSatisfaction: 0.9, Price: 1}},
	})))[0]
	if tk.Status != engine.TicketDone || tk.TxID == "" {
		t.Fatalf("ex-post delivery = %+v", tk)
	}
	hist, err := c.History()
	if err != nil || len(hist) != 1 || !hist[0].ExPost {
		t.Fatalf("ex-post history = %+v err=%v", hist, err)
	}
	rep := settle(t, c, must(c.ReportAsync(tk.TxID, 55, 55)))[0]
	if rep.Status != engine.TicketDone || rep.Price != 55 {
		t.Errorf("report = %+v, want done paying 55", rep)
	}
	if bogus := settle(t, c, must(c.ReportAsync("bogus", 1, 1)))[0]; bogus.Status != engine.TicketFailed {
		t.Errorf("report on an unknown tx = %+v, want failed", bogus)
	}
}

func TestHTTPValidation(t *testing.T) {
	_, c := mkServer(t, postedDesign())
	must := mustTicket(t)
	if _, err := c.ShareDatasetAsync("", "", nil, "open"); err == nil {
		t.Error("missing fields must fail")
	}
	if _, err := c.SubmitRequestAsync(RequestReq{Buyer: "ghost"}); err == nil {
		t.Error("empty columns must fail")
	}
	if _, err := c.SubmitRequestAsync(RequestReq{
		Buyer: "ghost", Columns: []string{"x"},
		Task:  TaskSpec{Kind: "alien"},
		Curve: []CurvePointSpec{{0.5, 1}},
	}); err == nil {
		t.Error("unknown task kind must fail")
	}
	if _, err := c.SubmitRequestAsyncPriority(RequestReq{Buyer: "ghost", Columns: []string{"x"}}, "urgent"); err == nil {
		t.Error("unknown priority class must fail")
	}
	if _, err := c.Balance(""); err == nil {
		t.Error("missing account must fail")
	}
	// A well-formed request from a buyer the market does not know is
	// accepted at intake and fails its ticket at the next epoch.
	ghost := settle(t, c, must(c.SubmitRequestAsync(RequestReq{
		Buyer: "ghost", Columns: []string{"x"}, Curve: []CurvePointSpec{{0.5, 1}},
	})))[0]
	if ghost.Status != engine.TicketFailed || ghost.Err == "" {
		t.Errorf("ghost buyer's ticket = %+v, want failed with a reason", ghost)
	}
}

func TestHTTPDemandSignals(t *testing.T) {
	_, c := mkServer(t, postedDesign())
	must := mustTicket(t)
	settle(t, c, must(c.RegisterAsync("b1", 100)))
	// The request stays open (nothing carries "unicorn"), so run the epoch
	// without waiting for its ticket to finish.
	must(c.SubmitRequestAsync(RequestReq{
		Buyer: "b1", Columns: []string{"unicorn"},
		Curve: []CurvePointSpec{{0.5, 10}},
	}))
	settle(t, c)
	var signals []map[string]any
	if err := c.get("/demand", &signals); err != nil {
		t.Fatal(err)
	}
	if len(signals) == 0 {
		t.Error("unmet demand must surface")
	}
}

func TestHTTPSaveCatalog(t *testing.T) {
	_, c := mkServer(t, postedDesign())
	must := mustTicket(t)
	settle(t, c, must(c.RegisterAsync("s1", 0)), must(c.ShareDatasetAsync("s1", "sales", mkRel(), "open")))
	dir := t.TempDir()
	var out map[string]string
	if err := c.post("/save", SaveReq{Dir: dir}, &out); err != nil {
		t.Fatal(err)
	}
	cat, err := catalog.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cat.Len() != 1 {
		t.Errorf("persisted datasets = %d", cat.Len())
	}
	rel, err := cat.Get("sales")
	if err != nil {
		t.Fatal(err)
	}
	if rel.NumRows() != 60 {
		t.Errorf("rows = %d", rel.NumRows())
	}
	if err := c.post("/save", SaveReq{}, nil); err == nil {
		t.Error("empty dir must fail")
	}
}
