package dmms

import (
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/relation"
)

func asyncFixture(t *testing.T, cfg engine.Config) (*core.Platform, *engine.Engine, *Client, func()) {
	t.Helper()
	p, err := core.NewPlatform(core.Options{Design: "posted-baseline"})
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(p, cfg)
	eng.Start()
	srv := httptest.NewServer(NewEngineServer(p, eng))
	return p, eng, NewClient(srv.URL), func() {
		srv.Close()
		eng.Stop()
	}
}

func asyncRelation(name string, rows int) *relation.Relation {
	r := relation.New(name, relation.NewSchema(
		relation.Col("x", relation.KindInt), relation.Col("y", relation.KindFloat)))
	for i := 0; i < rows; i++ {
		r.MustAppend(relation.Int(int64(i)), relation.Float(float64(i)))
	}
	return r
}

// TestAsyncSubmitPoll walks the full async lifecycle over HTTP: register,
// share and request return tickets; an epoch clears the market; tickets,
// events and settlements report the outcome.
func TestAsyncSubmitPoll(t *testing.T) {
	_, _, c, done := asyncFixture(t, engine.Config{Shards: 4})
	defer done()

	regT, err := c.RegisterAsync("b1", 2000)
	if err != nil {
		t.Fatal(err)
	}
	shareT, err := c.ShareDatasetAsync("s1", "s1/d1", asyncRelation("s1/d1", 30), "open")
	if err != nil {
		t.Fatal(err)
	}
	reqT, err := c.SubmitRequestAsync(RequestReq{
		Buyer:   "b1",
		Columns: []string{"x", "y"},
		Curve:   []CurvePointSpec{{MinSatisfaction: 0.5, Price: 150}},
	})
	if err != nil {
		t.Fatal(err)
	}

	if tk, err := c.Ticket(reqT); err != nil || tk.Status.Terminal() {
		t.Fatalf("request should still be queued before the epoch: %+v err=%v", tk, err)
	}
	if _, ran, err := c.TriggerEpoch(); err != nil || !ran {
		t.Fatalf("epoch did not run: ran=%v err=%v", ran, err)
	}

	for _, id := range []string{regT, shareT} {
		tk, err := c.WaitTicket(id, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if tk.Status != engine.TicketDone {
			t.Fatalf("ticket %s: %+v", id, tk)
		}
	}
	tk, err := c.WaitTicket(reqT, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if tk.Status != engine.TicketDone || tk.TxID == "" || tk.Price != 100 {
		t.Fatalf("request not settled at posted price: %+v", tk)
	}

	// Balance reflects the purchase through the regular sync endpoint.
	bal, err := c.Balance("b1")
	if err != nil {
		t.Fatal(err)
	}
	if bal != 1900 {
		t.Fatalf("buyer balance: want 1900, got %v", bal)
	}

	// The event log saw the whole story, in order.
	evs, err := c.Events(0)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []engine.EventKind
	for _, ev := range evs {
		kinds = append(kinds, ev.Kind)
	}
	want := []engine.EventKind{
		engine.EventEpochStart, engine.EventRegistered, engine.EventDatasetShared,
		engine.EventRequestFiled, engine.EventTxSettled, engine.EventEpochEnd,
	}
	if len(kinds) != len(want) {
		t.Fatalf("event kinds: want %v, got %v", want, kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("event %d: want %s, got %s", i, want[i], kinds[i])
		}
	}

	// Incremental cursor: nothing new after the last seq.
	tail, err := c.Events(evs[len(evs)-1].Seq)
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) != 0 {
		t.Fatalf("expected empty tail, got %d events", len(tail))
	}

	// Settlement subscriber caught the sale and conservation holds.
	deadline := time.Now().Add(time.Second)
	for {
		sts, conserved, err := c.Settlements()
		if err != nil {
			t.Fatal(err)
		}
		if len(sts) == 1 {
			if !conserved {
				t.Fatal("settlement conservation violated")
			}
			if sts[0].Buyer != "b1" || sts[0].Price != 100 {
				t.Fatalf("unexpected settlement %+v", sts[0])
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("settlement subscriber never caught up (%d entries)", len(sts))
		}
		time.Sleep(2 * time.Millisecond)
	}

	if st, err := c.EngineStats(); err != nil || st.Matched != 1 || st.Epochs < 1 {
		t.Fatalf("stats: %+v err=%v", st, err)
	}
}

// TestAsyncConcurrentClients hammers the HTTP surface from parallel clients
// while a fast ticker clears epochs in the background.
func TestAsyncConcurrentClients(t *testing.T) {
	p, eng, c, done := asyncFixture(t, engine.Config{Shards: 8, EpochEvery: 2 * time.Millisecond})
	defer done()

	if _, err := c.RegisterAsync("b1", 100000); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var tickets []string
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := string(rune('a'+i)) + "-seller"
			id := name + "/d"
			if _, err := c.ShareDatasetAsync(name, id, asyncRelation(id, 10), "open"); err != nil {
				t.Error(err)
				return
			}
			tk, err := c.SubmitRequestAsync(RequestReq{
				Buyer:   "b1",
				Columns: []string{"x", "y"},
				Curve:   []CurvePointSpec{{MinSatisfaction: 0.5, Price: 120}},
			})
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			tickets = append(tickets, tk)
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	for _, id := range tickets {
		tk, err := c.WaitTicket(id, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if tk.Status != engine.TicketDone {
			t.Fatalf("ticket %s: %+v", id, tk)
		}
	}
	eng.Stop()
	if !eng.Settlements().Conserved() {
		t.Fatal("settlement conservation violated")
	}
	if i := p.Arbiter.Ledger.VerifyChain(); i >= 0 {
		t.Fatalf("audit chain corrupted at entry %d", i)
	}
}
