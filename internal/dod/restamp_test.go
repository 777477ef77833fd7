package dod

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/discovery"
	"repro/internal/index"
	"repro/internal/profile"
	"repro/internal/relation"
	"repro/internal/workload"
)

// lakeMarket is a DoD engine over the first n tables of a seeded lake,
// grown one share at a time the way the arbiter shares: register in the
// catalog, then index through ShareIntoCatalog.
type lakeMarket struct {
	cat  *catalog.Catalog
	ix   *index.Index
	eng  *Engine
	lake []*relation.Relation
}

func newLakeMarket(t *testing.T, seed int64, n int) *lakeMarket {
	t.Helper()
	m := &lakeMarket{cat: catalog.New(), ix: index.Build(index.DefaultConfig(), nil),
		lake: workload.LakeTables(70, 60, seed)}
	m.eng = New(m.cat, discovery.New(m.ix))
	for _, r := range m.lake[:n] {
		m.share(t, r.Name, r)
	}
	return m
}

func (m *lakeMarket) share(t *testing.T, id string, rel *relation.Relation) {
	t.Helper()
	if err := m.cat.Register(catalog.DatasetID(id), "seller-"+id, rel); err != nil {
		t.Fatal(err)
	}
	m.eng.ShareIntoCatalog(id, func() { m.ix.Add(profile.Profile(id, rel)) })
}

// auxTable provides no wanted column of any want below, but its ref column
// overlaps the lake's key clusters, so indexing it appends join edges to
// datasets the cached mashups use.
func auxTable(rng *rand.Rand, id string, cluster int) *relation.Relation {
	r := relation.New(id, relation.NewSchema(
		relation.Col("ref", relation.KindInt), relation.Col("memo", relation.KindString)))
	for i := 0; i < 60; i++ {
		r.MustAppend(relation.Int(int64(cluster*100000+rng.Intn(120))), relation.String_(fmt.Sprintf("m%d", rng.Intn(40))))
	}
	return r
}

// renamed is rel with its columns renamed, for alias and transform shares.
func renamed(rel *relation.Relation, id string, names ...string) *relation.Relation {
	cols := make([]relation.Column, len(rel.Schema))
	for i, c := range rel.Schema {
		cols[i] = relation.Col(names[i], c.Kind)
	}
	out := relation.New(id, relation.NewSchema(cols...))
	for _, row := range rel.Rows {
		out.MustAppend(row...)
	}
	return out
}

// sameBuild fails unless a cached set carries exactly what a fresh build
// returns: error text, and per candidate datasets, plan, coverage, quality,
// rows and lineage.
func sameBuild(t *testing.T, label string, cs *CandidateSet, fresh []Candidate, err error) {
	t.Helper()
	errText := ""
	if err != nil {
		errText = err.Error()
	}
	if cs.Err != errText {
		t.Fatalf("%s: cached err %q, fresh err %q", label, cs.Err, errText)
	}
	if len(cs.Candidates) != len(fresh) {
		t.Fatalf("%s: cached %d candidates, fresh %d", label, len(cs.Candidates), len(fresh))
	}
	for i := range fresh {
		c, f := cs.Candidates[i], fresh[i]
		for _, d := range []struct {
			what        string
			cached, got any
		}{
			{"datasets", c.Datasets, f.Datasets},
			{"plan", c.Plan, f.Plan},
			{"coverage", c.Coverage, f.Coverage},
			{"quality", c.Quality, f.Quality},
			{"schema", c.Rel().Schema, f.Rel().Schema},
			{"rows", c.Rel().Rows, f.Rel().Rows},
			{"lineage", c.Anno.Lineage, f.Anno.Lineage},
			{"players", c.Players(), f.Anno.Datasets()},
		} {
			if fmt.Sprint(d.cached) != fmt.Sprint(d.got) {
				t.Fatalf("%s: candidate %d %s differ:\ncached %v\nfresh  %v", label, i, d.what, d.cached, d.got)
			}
		}
	}
}

// TestShareRestampEqualsFreshBuild is the exactness gate of relevance-scoped
// invalidation: after every share, relevant or not, each want's cached set
// equals a fresh build at the new catalog version — and irrelevant shares
// really were absorbed by re-stamping rather than rebuilding.
func TestShareRestampEqualsFreshBuild(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			m := newLakeMarket(t, seed, 40)
			// The lake has 1 + 70/10 = 8 key clusters: table i joins key_c(i%8).
			toC := &Transform{Name: "f_to_c", Kind: relation.KindFloat,
				Fn: func(v relation.Value) relation.Value { return v }}
			wants := []Want{
				{Columns: []string{"key_c0", "val_0_a", "val_8_b"}},                                   // joins lake0 and lake8
				{Columns: []string{"val_3_a"}},                                                        // val_N_a fuzzy-matches at 0.5
				{Columns: []string{"key_c1", "price"}, Aliases: map[string][]string{"price": {"px"}}}, // alias
				{Columns: []string{"key_c2", "temp_c"}},                                               // transform
				{Columns: []string{"key_c4", "val_4_b", "val_12_a"}, MaxDatasets: 2},
				{Columns: []string{"key_c1", "val_1_a"}, MinRows: 1 << 20}, // failed: nothing materializes enough rows
				{Columns: []string{"no", "such", "columns"}},               // hopeless
			}
			check := func(label string) {
				t.Helper()
				for _, w := range wants {
					cs := m.eng.BuildCached(context.Background(), w)
					if cs.Version != m.eng.CatalogVersion() {
						t.Fatalf("%s %v: set at version %d, catalog at %d", label, w.Columns, cs.Version, m.eng.CatalogVersion())
					}
					fresh, err := m.eng.Build(w)
					sameBuild(t, fmt.Sprintf("%s %v", label, w.Columns), cs, fresh, err)
				}
			}
			check("initial")

			rng := rand.New(rand.NewSource(seed))
			nextLake := 40
			for step := 0; step < 40; step++ {
				var id string
				var rel *relation.Relation
				switch k := rng.Intn(10); {
				case k < 6: // irrelevant, but joins the key clusters
					id = fmt.Sprintf("aux%02d", step)
					rel = auxTable(rng, id, rng.Intn(8))
				case k == 6 && nextLake < 70: // direct (and fuzzy for val_3_a)
					rel = m.lake[nextLake]
					id = rel.Name
					nextLake++
				case k == 7: // alias provider of price
					id = fmt.Sprintf("alias%02d", step)
					rel = renamed(m.lake[rng.Intn(40)], id, "ref", "px", "tag")
				case k == 8: // provider only through a transform registered first
					id = fmt.Sprintf("xfer%02d", step)
					m.eng.RegisterTransform(catalog.DatasetID(id), "raw", "temp_c", toC)
					check(fmt.Sprintf("after transform for %s", id))
					rel = renamed(m.lake[2], id, "ref", "raw", "note")
				default: // val_61_a: a provider of the val_N_a columns by fuzzy name only
					id = fmt.Sprintf("fuzzy%02d", step)
					rel = renamed(m.lake[61], id, "ref", "val_61_a", "memo")
				}
				m.share(t, id, rel)
				check(fmt.Sprintf("after share %d (%s)", step, id))
			}
			st := m.eng.CacheStats()
			if st.Restamped == 0 {
				t.Fatal("no cached set was re-stamped; the irrelevant shares all rebuilt")
			}
			if st.Stale == 0 {
				t.Fatal("no cached set went stale; the relevant shares were not detected")
			}
			t.Logf("restamped %d, stale %d, builds %d", st.Restamped, st.Stale, st.Builds)
		})
	}
}

// TestShareIntoEmptyIndexInvalidates: a set built before anything was
// indexed fails with "no datasets indexed", which a fresh build after the
// first share would not repeat, so that share carries nothing forward.
func TestShareIntoEmptyIndexInvalidates(t *testing.T) {
	m := newLakeMarket(t, 1, 0)
	hopeless := Want{Columns: []string{"no", "such", "columns"}}
	before := m.eng.BuildCached(context.Background(), hopeless)
	if before.Err != "dod: no datasets indexed" {
		t.Fatalf("empty-index build error %q", before.Err)
	}
	m.share(t, "lake0000", m.lake[0])
	after := m.eng.BuildCached(context.Background(), hopeless)
	fresh, err := m.eng.Build(hopeless)
	sameBuild(t, "after first share", after, fresh, err)
	if st := m.eng.CacheStats(); st.Restamped != 0 || st.Stale != 1 {
		t.Errorf("restamped %d, stale %d; want 0 and 1", st.Restamped, st.Stale)
	}
}

// TestConcurrentBuildsAndShares is the -race exercise for the share seam:
// builders hammer BuildCached while relevant and irrelevant shares are
// indexed and their cached sets re-stamped or invalidated. Afterwards every
// cached set still equals a fresh build.
func TestConcurrentBuildsAndShares(t *testing.T) {
	m := newLakeMarket(t, 4, 30)
	wants := []Want{
		{Columns: []string{"key_c0", "val_0_a", "val_8_b"}},
		{Columns: []string{"key_c3", "val_3_a"}},
		{Columns: []string{"val_5_b"}},
		{Columns: []string{"no", "such"}},
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				want := wants[(w+i)%len(wants)]
				cs := m.eng.BuildCached(context.Background(), want)
				if cs.Err == "" && len(cs.Candidates) == 0 {
					t.Error("successful build with no candidates")
					return
				}
				m.eng.Valid(cs, want)
			}
		}(w)
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 24; i++ {
		if i%3 == 2 {
			r := m.lake[30+i]
			m.share(t, r.Name, r)
		} else {
			id := fmt.Sprintf("aux%02d", i)
			m.share(t, id, auxTable(rng, id, rng.Intn(8)))
		}
	}
	close(stop)
	wg.Wait()
	for _, w := range wants {
		fresh, err := m.eng.Build(w)
		sameBuild(t, fmt.Sprint(w.Columns), m.eng.BuildCached(context.Background(), w), fresh, err)
	}
	if m.eng.CacheStats().Restamped == 0 {
		t.Error("no cached set was re-stamped")
	}
}
