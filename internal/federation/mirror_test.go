package federation

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/arbiter"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/license"
	"repro/internal/relation"
	"repro/internal/wtp"
)

// scratchMatch is the reference the catalog mirror must reproduce: the
// per-want pricing path the coordinator used before it cached a mirror. It
// builds a fresh platform for the want, funds the buyer with their real
// home-shard balance, re-shares every shard's datasets in (shard, share)
// order (first copy of a colliding ID wins) and runs one matching round.
func scratchMatch(m *Market, w *fedWant) (*arbiter.Transaction, error) {
	want, fn, err := w.spec.Decode()
	if err != nil {
		return nil, err
	}
	p, err := core.NewPlatform(m.cfg.Platform)
	if err != nil {
		return nil, err
	}
	home := HomeOf(w.spec.Buyer, len(m.shards))
	funds := m.shards[home].Platform.Arbiter.Ledger.Balance(w.spec.Buyer).Float()
	p.Buyer(w.spec.Buyer, funds)
	for _, sh := range m.shards {
		for _, d := range sh.Platform.DatasetStates() {
			terms := license.Terms{Kind: license.Kind(d.License), ExclusivityTaxRate: d.TaxRate}
			_ = p.ShareDataset(d.Owner, catalog.DatasetID(d.ID), d.Relation, d.Meta, terms)
		}
	}
	if _, err := p.SubmitRequest(want, fn); err != nil {
		return nil, err
	}
	res, err := p.MatchRound()
	if err != nil {
		return nil, err
	}
	if len(res.Transactions) == 0 {
		return nil, nil
	}
	return res.Transactions[0], nil
}

// txDiff describes how two priced outcomes differ ("" when they agree on
// everything the 2PC consumes or a client sees).
func txDiff(got, ref *arbiter.Transaction) string {
	switch {
	case got == nil && ref == nil:
		return ""
	case got == nil || ref == nil:
		return fmt.Sprintf("mirror %v, scratch %v", got, ref)
	case got.ID != ref.ID || got.RequestID != ref.RequestID || got.Buyer != ref.Buyer:
		return fmt.Sprintf("ids %s/%s/%s vs %s/%s/%s", got.ID, got.RequestID, got.Buyer, ref.ID, ref.RequestID, ref.Buyer)
	case !slices.Equal(got.Datasets, ref.Datasets):
		return fmt.Sprintf("datasets %v vs %v", got.Datasets, ref.Datasets)
	case !slices.Equal(got.Plan, ref.Plan):
		return fmt.Sprintf("plan %v vs %v", got.Plan, ref.Plan)
	case got.Mashup.NumRows() != ref.Mashup.NumRows():
		return fmt.Sprintf("mashup rows %d vs %d", got.Mashup.NumRows(), ref.Mashup.NumRows())
	case got.Price != ref.Price || got.ArbiterCut != ref.ArbiterCut:
		return fmt.Sprintf("price/arbiter cut %v/%v vs %v/%v", got.Price, got.ArbiterCut, ref.Price, ref.ArbiterCut)
	case !maps.Equal(got.SellerCuts, ref.SellerCuts):
		return fmt.Sprintf("seller cuts %v vs %v", got.SellerCuts, ref.SellerCuts)
	case got.Satisfaction != ref.Satisfaction:
		return fmt.Sprintf("satisfaction %v vs %v", got.Satisfaction, ref.Satisfaction)
	}
	return ""
}

func pendingWants(c *coordinator) []*fedWant {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*fedWant(nil), c.wants...)
}

// TestCoordinatorMirrorMatchesScratchPlatform: over seeded scripts (2 and 3
// shards, several designs, shares between rounds, repeated and unmatchable
// spanning wants, a cross-shard ID collision left by pre-check state), every
// coordinator settle prices exactly as the per-want scratch platform did —
// same mashup datasets, plan, price, arbiter cut, seller cuts and
// satisfaction — while the mirror is built at most once per round.
func TestCoordinatorMirrorMatchesScratchPlatform(t *testing.T) {
	for _, tc := range []struct {
		shards int
		design string
		seed   int64
	}{
		{2, "posted-baseline", 1},
		{2, "external-rsop", 2},
		{3, "external-vickrey", 3},
		{3, "posted-baseline", 4},
	} {
		t.Run(fmt.Sprintf("shards=%d/%s/seed=%d", tc.shards, tc.design, tc.seed), func(t *testing.T) {
			n := tc.shards
			m, err := Open(Config{Shards: n, Platform: core.Options{Design: tc.design}})
			if err != nil {
				t.Fatal(err)
			}
			defer m.Stop()
			rnd := rand.New(rand.NewSource(tc.seed))
			cols := []string{"c0", "c1", "c2", "c3", "c4", "c5"}
			sellers := make([][]string, n)
			buyers := make([]string, n)
			for s := 0; s < n; s++ {
				sellers[s] = []string{nameOn(t, fmt.Sprintf("ms%d-", s), s, n), nameOn(t, fmt.Sprintf("mt%d-", s), s, n)}
				buyers[s] = nameOn(t, fmt.Sprintf("mb%d-", s), s, n)
				mustTk(m.SubmitRegister(buyers[s], 1500+float64(rnd.Intn(6))*500))
			}
			shared := 0
			share := func(seller, col string) string {
				id := fmt.Sprintf("%s/d%d", seller, shared)
				shared++
				openShare(t, m, seller, id, keyedRel(id, col, 10+rnd.Intn(30)))
				return id
			}
			// Seed every column somewhere so early wants can span.
			firstOn0 := share(sellers[0][0], cols[0])
			for i, c := range cols[1:] {
				share(sellers[(i+1)%n][i%2], c)
			}

			type ask struct {
				buyer string
				price float64
				cols  []string
			}
			var asked []ask
			const rounds = 6
			compared, matched := 0, 0
			for round := 0; round < rounds; round++ {
				for i := rnd.Intn(3); i > 0; i-- {
					s := rnd.Intn(n)
					share(sellers[s][rnd.Intn(2)], cols[rnd.Intn(len(cols))])
				}
				if round == 2 {
					// A cross-shard ID collision as state from before
					// SubmitShare checked IDs: filed straight with the last
					// shard's engine, bypassing the router.
					id := catalog.DatasetID(firstOn0)
					mustTk(m.shards[n-1].Engine.SubmitShare(sellers[n-1][0], id, keyedRel(firstOn0, "c5", 25),
						wtp.DatasetMeta{Dataset: firstOn0, HasProvenance: true}, license.Terms{Kind: license.Open}))
				}
				for i := 2 + rnd.Intn(3); i > 0; i-- {
					var a ask
					if len(asked) > 0 && rnd.Intn(3) == 0 {
						a = asked[rnd.Intn(len(asked))]
					} else {
						p := rnd.Perm(len(cols))
						a = ask{buyers[rnd.Intn(n)], []float64{0.01, 300, 900}[rnd.Intn(3)], []string{cols[p[0]], cols[p[1]]}}
						asked = append(asked, a)
					}
					w, f := joinWant(a.buyer, a.price, a.cols...)
					mustTk(m.SubmitRequest(w, f))
				}
				for _, sh := range m.shards {
					sh.Engine.TriggerEpoch()
				}
				// One coordinator round, pricing each want on the mirror and
				// on a scratch platform at the exact state its settle sees.
				m.coordMu.Lock()
				for _, w := range pendingWants(m.coord) {
					ref, rerr := scratchMatch(m, w)
					got, gerr := m.coord.match(w)
					if (rerr != nil) != (gerr != nil) {
						m.coordMu.Unlock()
						t.Fatalf("round %d %s: errors differ: mirror %v, scratch %v", round, w.ticket, gerr, rerr)
					}
					if d := txDiff(got, ref); d != "" {
						m.coordMu.Unlock()
						t.Fatalf("round %d %s: %s", round, w.ticket, d)
					}
					compared++
					if got != nil {
						matched++
					}
					if _, err := m.coord.settle(w); err != nil {
						m.coordMu.Unlock()
						t.Fatalf("round %d %s: settle: %v", round, w.ticket, err)
					}
				}
				m.coordMu.Unlock()
			}
			builds := m.coord.mirrorBuildCount()
			t.Logf("%d coordinator pricings compared, %d matched, %d mirror builds", compared, matched, builds)
			if matched < rounds {
				t.Fatalf("only %d of %d spanning pricings matched; the script exercises too little", matched, compared)
			}
			if builds == 0 || builds > rounds {
				t.Fatalf("%d mirror builds over %d rounds, want 1..%d (once per catalog change)", builds, rounds, rounds)
			}
			if _, settled, aborted := m.CoordStats(); settled == 0 || aborted != 0 {
				t.Fatalf("coordinator settled %d, aborted %d", settled, aborted)
			}
		})
	}
}

// pairRel is keyedRel over a join-key column of the given name, with its
// values shifted by off so two halves of a pair join only on the key.
func pairRel(name, key, valCol string, off float64) *relation.Relation {
	r := relation.New(name, relation.NewSchema(
		relation.Col(key, relation.KindInt), relation.Col(valCol, relation.KindFloat)))
	for i := 0; i < 20; i++ {
		r.MustAppend(relation.Int(int64(i)), relation.Float(off+float64(i)*2.5))
	}
	return r
}

// TestCoordinatorMirrorSeesConcurrentShares: with periodic epochs, shards
// apply shares while coordinator rounds rebuild the mirror, and a spanning
// want that needs the newest datasets still settles — a share racing a
// mirror build forces the next round to rebuild instead of leaving a stale
// mirror behind the last catalog change.
func TestCoordinatorMirrorSeesConcurrentShares(t *testing.T) {
	m, err := Open(Config{Shards: 2, Platform: core.Options{Design: testDesign},
		Engine: engine.Config{EpochEvery: 2 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	defer m.Stop()
	buyer := nameOn(t, "cb", 0, 2)
	left := nameOn(t, "cl", 0, 2)
	right := nameOn(t, "cr", 1, 2)
	mustTk(m.SubmitRegister(buyer, 1e6))

	// sharePair shares the two halves of a spanning want, each under a join
	// key of its own so earlier pairs are no candidates.
	sharePair := func(tag string) (string, string) {
		l, r := tag+"l", tag+"r"
		openShare(t, m, left, left+"/"+tag, pairRel(left+"/"+tag, "k"+tag, l, 0))
		openShare(t, m, right, right+"/"+tag, pairRel(right+"/"+tag, "k"+tag, r, 1000))
		return l, r
	}
	// A lowball spanning want that never clears keeps every coordinator
	// round pricing, so each catalog change below triggers a mirror build.
	l, r := sharePair("base")
	w, f := joinWant(buyer, 0.01, l, r)
	mustTk(m.SubmitRequest(w, f))

	fill := 0
	for i := 0; i < 5; i++ {
		// Filler shares on both shards move catalog versions while rounds
		// rebuild; the pair shared right after them races those builds.
		for j := 0; j < 10; j++ {
			s := []string{left, right}[fill%2]
			id := fmt.Sprintf("%s/fill%d", s, fill)
			fill++
			if _, err := m.SubmitShare(s, catalog.DatasetID(id), flatRel(id, 5),
				wtp.DatasetMeta{Dataset: id}, license.Terms{Kind: license.Open}); err != nil {
				t.Fatalf("filler share: %v", err)
			}
			time.Sleep(time.Millisecond)
		}
		l, r := sharePair(fmt.Sprintf("new%d", i))
		w, f := joinWant(buyer, 900, l, r)
		tk := mustTk(m.SubmitRequest(w, f))
		if !strings.HasPrefix(tk, "x:") {
			t.Fatalf("want %d got ticket %s, want a coordinator ticket", i, tk)
		}
		// No catalog change follows the pair: only a rebuild that saw it
		// can settle the want.
		deadline := time.Now().Add(5 * time.Second)
		for {
			got, _ := m.Ticket(tk)
			if got.Status == engine.TicketDone {
				break
			}
			if got.Status.Terminal() || time.Now().After(deadline) {
				t.Fatalf("want %d on the newest datasets did not settle: %+v", i, got)
			}
			time.Sleep(time.Millisecond)
		}
	}
	if _, _, aborted := m.CoordStats(); aborted != 0 {
		t.Fatalf("%d cross-shard attempts aborted", aborted)
	}
}

// TestCrossShardDatasetIDCollisionRejected: on two shards a share whose ID
// another shard already holds (or has reserved, still in intake) is refused
// with ErrDatasetIDTaken, leaving the first owner and the coordinator's
// mirror untouched; the router re-learns held IDs at Open. A same-shard
// duplicate keeps the single-arbiter behaviour — its ticket fails at the
// epoch — and so does every duplicate on one shard.
func TestCrossShardDatasetIDCollisionRejected(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(fedConfig(dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	fx := newCrossShardFixture(t)
	fx.drive(t, m)
	idA := catalog.DatasetID(fx.sellerA + "/d0") // held by shard 0
	other := nameOn(t, "other", 1, 2)

	_, err = m.SubmitShare(other, idA, keyedRel(string(idA), "zz", 5),
		wtp.DatasetMeta{Dataset: string(idA)}, license.Terms{Kind: license.Open})
	if !errors.Is(err, ErrDatasetIDTaken) {
		t.Fatalf("cross-shard duplicate of a held ID: err %v, want ErrDatasetIDTaken", err)
	}
	// A reservation still in intake on shard 1 blocks shard 0 as well.
	pend := catalog.DatasetID("pending/d0")
	openShare(t, m, other, string(pend), keyedRel(string(pend), "yy", 5))
	if _, err := m.SubmitShare(fx.sellerA, pend, keyedRel(string(pend), "yy", 5),
		wtp.DatasetMeta{}, license.Terms{Kind: license.Open}); !errors.Is(err, ErrDatasetIDTaken) {
		t.Fatalf("duplicate of a reserved ID: err %v, want ErrDatasetIDTaken", err)
	}
	// Same shard: accepted at intake, fails at the epoch as on one arbiter.
	dup := openShare(t, m, fx.sellerA, string(idA), keyedRel(string(idA), "zz", 5))
	m.TriggerEpoch()
	if got, _ := m.Ticket(dup); got.Status != engine.TicketFailed {
		t.Fatalf("same-shard duplicate ticket %+v, want failed", got)
	}

	// The first owner is unaffected, and the mirror prices the want on it.
	if owner := m.Shards()[0].Platform.Arbiter.Catalog.Owner(idA); owner != fx.sellerA {
		t.Fatalf("owner of %s is %q", idA, owner)
	}
	tk := fx.submitSpanning(t, m)
	m.TriggerEpoch()
	if got, _ := m.Ticket(tk); got.Status != engine.TicketDone {
		t.Fatalf("spanning want after rejected collisions: %+v", got)
	}
	mirror := m.coord.mirror.Arbiter.Catalog
	if owner := mirror.Owner(idA); owner != fx.sellerA {
		t.Fatalf("mirror owner of %s is %q, want %q", idA, owner, fx.sellerA)
	}
	if rel, err := mirror.Current(idA); err != nil || rel.Schema.Has("zz") {
		t.Fatalf("mirror copy of %s: %v (err %v)", idA, rel, err)
	}
	m.Stop()

	// After a restart the router re-learns which shard holds each ID.
	m2, err := Open(fedConfig(dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Stop()
	if _, err := m2.SubmitShare(fx.sellerA, pend, keyedRel(string(pend), "zz", 5),
		wtp.DatasetMeta{}, license.Terms{Kind: license.Open}); !errors.Is(err, ErrDatasetIDTaken) {
		t.Fatalf("after restart, duplicate of shard 1's %s: err %v", pend, err)
	}
	if _, err := m2.SubmitShare(other, idA, keyedRel(string(idA), "zz", 5),
		wtp.DatasetMeta{}, license.Terms{Kind: license.Open}); !errors.Is(err, ErrDatasetIDTaken) {
		t.Fatalf("after restart, duplicate of shard 0's %s: err %v", idA, err)
	}
}

// TestSingleShardDuplicateIDUnchanged: one shard has no ID reservations —
// a duplicate share is accepted at intake and its ticket fails at the
// epoch, exactly as on a bare engine.
func TestSingleShardDuplicateIDUnchanged(t *testing.T) {
	m, err := Open(Config{Shards: 1, Platform: core.Options{Design: testDesign}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	first := openShare(t, m, "s", "d0", flatRel("d0", 5))
	second := openShare(t, m, "t", "d0", flatRel("d0", 5))
	m.TriggerEpoch()
	if got, _ := m.Ticket(first); got.Status != engine.TicketDone {
		t.Fatalf("first share: %+v", got)
	}
	if got, _ := m.Ticket(second); got.Status != engine.TicketFailed {
		t.Fatalf("duplicate share on one shard: %+v, want failed at the epoch", got)
	}
}
