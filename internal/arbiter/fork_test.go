package arbiter

import (
	"testing"

	"repro/internal/dod"
	"repro/internal/ledger"
	"repro/internal/license"
	"repro/internal/relation"
	"repro/internal/wtp"
)

// TestArbiterForkIsolated: settling on a fork leaves the parent's ledger,
// history, license grants and open requests untouched; the fork numbers
// its requests and transactions from scratch; and a second fork pricing
// the same want reuses the parent's candidate cache instead of building.
func TestArbiterForkIsolated(t *testing.T) {
	a := setupMarket(t, mkDesign())
	// An exclusive dataset: a grant leaking between forks (or into the
	// parent) would make the second fork's sale fail.
	s3 := relation.New("s3", relation.NewSchema(
		relation.Col("a", relation.KindInt), relation.Col("e", relation.KindFloat)))
	for i := 0; i < 100; i++ {
		s3.MustAppend(relation.Int(int64(i)), relation.Float(float64(2*i)))
	}
	if err := a.ShareDataset("seller1", "s3", s3, meta("s3"),
		license.Terms{Kind: license.Exclusive, ExclusivityTaxRate: 0.1}); err != nil {
		t.Fatal(err)
	}
	parentReq, err := a.SubmitRequest(dod.Want{Columns: []string{"zz"}}, coverageWTP("b1", 100))
	if err != nil {
		t.Fatal(err)
	}

	balances := func(l *ledger.Ledger) map[string]ledger.Currency {
		out := map[string]ledger.Currency{}
		for _, acct := range l.Accounts() {
			out[acct] = l.Balance(acct)
		}
		return out
	}
	before := balances(a.Ledger)
	logLen := len(a.Ledger.Log())

	want := dod.Want{Columns: []string{"a", "b", "e"}}
	priceFork := func() *Transaction {
		t.Helper()
		f := a.Fork("b9", ledger.FromFloat(500))
		if got := f.Ledger.Balance("b9"); got != ledger.FromFloat(500) {
			t.Fatalf("fork buyer funded with %v, want 500", got)
		}
		for acct := range before {
			if !f.Ledger.Exists(acct) {
				t.Fatalf("fork ledger lacks parent account %q", acct)
			}
		}
		id, err := f.SubmitRequest(want, &wtp.Function{
			Buyer: "b9",
			Task:  wtp.CoverageTask{Columns: want.Columns, WantRows: 50},
			Curve: wtp.PriceCurve{{MinSatisfaction: 0.9, Price: 100}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if id != "req-0001" {
			t.Fatalf("fork request ID %s, want req-0001", id)
		}
		res, err := f.MatchRound()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Transactions) != 1 {
			t.Fatalf("fork settled %d transactions (unsat %v)", len(res.Transactions), res.Unsatisfied)
		}
		tx := res.Transactions[0]
		if tx.ID != "tx-0002" {
			t.Fatalf("fork tx ID %s, want tx-0002", tx.ID)
		}
		if got := len(f.Licenses.GrantsFor("s3")); got != 1 {
			t.Fatalf("fork issued %d grants on s3, want 1", got)
		}
		return tx
	}
	first := priceFork()
	built := a.DoD().CacheStats()
	second := priceFork()
	after := a.DoD().CacheStats()
	if after.Builds != built.Builds || after.Hits <= built.Hits {
		t.Fatalf("second fork should be a cache hit: builds %d→%d, hits %d→%d",
			built.Builds, after.Builds, built.Hits, after.Hits)
	}
	if first.Price != second.Price || first.ArbiterCut != second.ArbiterCut ||
		len(first.SellerCuts) != len(second.SellerCuts) {
		t.Fatalf("forks priced the same want differently: %+v vs %+v", first, second)
	}
	for s, cut := range first.SellerCuts {
		if second.SellerCuts[s] != cut {
			t.Fatalf("seller %s cut %v vs %v", s, cut, second.SellerCuts[s])
		}
	}

	for acct, bal := range balances(a.Ledger) {
		if before[acct] != bal {
			t.Fatalf("parent balance of %s moved: %v → %v", acct, before[acct], bal)
		}
	}
	if a.Ledger.Exists("b9") {
		t.Fatal("fork buyer leaked into the parent ledger")
	}
	if got := len(a.Ledger.Log()); got != logLen {
		t.Fatalf("parent audit log grew %d → %d", logLen, got)
	}
	if h := a.History(); len(h) != 0 {
		t.Fatalf("parent history holds %d transactions", len(h))
	}
	if g := a.Licenses.GrantsFor("s3"); len(g) != 0 {
		t.Fatalf("parent holds %d grants on s3", len(g))
	}
	if open := a.OpenRequests(); len(open) != 1 || open[0] != parentReq {
		t.Fatalf("parent open requests %v, want [%s]", open, parentReq)
	}
}
