package engine

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/dod"
	"repro/internal/license"
	"repro/internal/market"
	"repro/internal/relation"
	"repro/internal/wtp"
)

// invalidateOnShare is a write-ahead hook that drops the whole candidate
// cache whenever a share is applied: the full invalidation every share
// caused before shares were scoped to the sets they can enter.
type invalidateOnShare struct{ dod *dod.Engine }

func (h invalidateOnShare) Persist(ev Event) error {
	if ev.Kind == EventDatasetShared {
		h.dod.InvalidateAll()
	}
	return nil
}

// joinScript is a seeded join-build-style market: bases sharing a key k,
// wants that join two or three of them, fresh shares that join nothing, and
// now and then a share that supplies a wanted column and must be priced in.
type joinScript struct {
	bases []*relation.Relation
	wants [][]string
	rng   *rand.Rand
}

func newJoinScript(seed int64) *joinScript {
	s := &joinScript{rng: rand.New(rand.NewSource(seed))}
	for b := 0; b < 6; b++ {
		s.bases = append(s.bases, s.keyed(fmt.Sprintf("jb/base%02d", b), fmt.Sprintf("v%02d", b), 0.5))
	}
	for a := 0; a < 6; a++ {
		s.wants = append(s.wants, []string{"k", fmt.Sprintf("v%02d", a), fmt.Sprintf("v%02d", (a+1)%6)})
	}
	s.wants = append(s.wants, []string{"k", "v00", "v02", "v04"}, []string{"k", "v01", "v03", "v05"})
	return s
}

// keyed is a base: key k over part of a 400-key space and one value column.
func (s *joinScript) keyed(id, col string, keep float64) *relation.Relation {
	r := relation.New(id, relation.NewSchema(
		relation.Col("k", relation.KindInt), relation.Col(col, relation.KindFloat)))
	for k := 0; k < 400; k++ {
		if s.rng.Float64() < keep {
			r.MustAppend(relation.Int(int64(k)), relation.Float(s.rng.NormFloat64()))
		}
	}
	return r
}

// fresh is a share no want can use: its own column names, 20 rows.
func (s *joinScript) fresh(n int) *relation.Relation {
	id := fmt.Sprintf("jb/fresh%03d", n)
	r := relation.New(id, relation.NewSchema(
		relation.Col(fmt.Sprintf("note%03d", n), relation.KindString),
		relation.Col(fmt.Sprintf("score%03d", n), relation.KindFloat)))
	for i := 0; i < 20; i++ {
		r.MustAppend(relation.String_(fmt.Sprintf("n%d-%d", n, i)), relation.Float(s.rng.Float64()))
	}
	return r
}

// runJoinScript plays the script through an engine with a builder pool and
// returns its tx-settled events (arrival times cleared) and cache counters.
func runJoinScript(t *testing.T, seed int64, fullInvalidate bool) ([]byte, dod.CacheStats) {
	t.Helper()
	p, err := core.NewPlatform(core.Options{Design: "posted-baseline", Allocator: market.AdaptiveShapley{}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Shards: 2, DoDWorkers: 2}
	if fullInvalidate {
		cfg.Persister = invalidateOnShare{dod: p.Arbiter.DoD()}
	}
	e := New(p, cfg)
	defer e.Stop()

	s := newJoinScript(seed)
	open := license.Terms{Kind: license.Open}
	share := func(seller string, rel *relation.Relation) {
		mustTicket(e.SubmitShare(seller, catalog.DatasetID(rel.Name), rel,
			wtp.DatasetMeta{Dataset: rel.Name, HasProvenance: true}, open))
	}
	buyers := []string{"b0", "b1", "b2"}
	for _, b := range buyers {
		mustTicket(e.SubmitRegister(b, 1e9))
	}
	for i, r := range s.bases {
		share(fmt.Sprintf("seller%d", i), r)
	}
	e.TriggerEpoch()

	var tickets []string
	shares := 0
	for epoch := 0; epoch < 24; epoch++ {
		for i := 0; i < 8; i++ {
			switch {
			case i == 3 && epoch%2 == 0:
				share(fmt.Sprintf("seller%d", shares%6), s.fresh(shares))
				shares++
			case i == 5 && epoch%7 == 3:
				// A second supplier of a wanted column: relevant to every
				// want naming it.
				col := fmt.Sprintf("v%02d", s.rng.Intn(6))
				share("seller-late", s.keyed(fmt.Sprintf("jb/late%02d", epoch), col, 0.8))
			}
			cols := s.wants[s.rng.Intn(len(s.wants))]
			fn := &wtp.Function{
				Buyer: buyers[s.rng.Intn(len(buyers))],
				Task:  wtp.CoverageTask{Columns: cols, WantRows: 50},
				Curve: []wtp.CurvePoint{{MinSatisfaction: 0.5, Price: 150}},
			}
			tickets = append(tickets, mustTicket(e.SubmitRequest(dod.Want{Columns: cols}, fn)))
		}
		e.TriggerEpoch()
	}
	e.TriggerEpoch()
	waitTerminal(t, e, tickets, 10*time.Second)

	var settled []Event
	for _, ev := range e.Log().Since(0) {
		if ev.Kind == EventTxSettled {
			ev.At = time.Time{}
			settled = append(settled, ev)
		}
	}
	if len(settled) == 0 {
		t.Fatal("nothing settled")
	}
	out, err := json.Marshal(settled)
	if err != nil {
		t.Fatal(err)
	}
	return out, p.DoDCacheStats()
}

// TestRestampMatchesFullInvalidation is the engine-level differential for
// relevance-scoped invalidation: the same seeded script settles byte-for-byte
// the same transactions whether a share re-stamps the cached sets it cannot
// enter or drops the whole cache, as every share used to.
func TestRestampMatchesFullInvalidation(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			scoped, st := runJoinScript(t, seed, false)
			full, fullSt := runJoinScript(t, seed, true)
			if string(scoped) != string(full) {
				t.Fatalf("tx-settled streams differ:\nscoped %s\nfull   %s", scoped, full)
			}
			if !strings.Contains(string(scoped), `"jb/late`) {
				t.Error("no settlement used a late relevant share")
			}
			if st.Restamped == 0 {
				t.Error("no cached set was re-stamped")
			}
			if st.Builds >= fullSt.Builds {
				t.Errorf("scoped invalidation ran %d builds, full invalidation %d", st.Builds, fullSt.Builds)
			}
			t.Logf("builds: scoped %d, full %d; restamped %d", st.Builds, fullSt.Builds, st.Restamped)
		})
	}
}
