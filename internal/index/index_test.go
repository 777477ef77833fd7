package index

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/profile"
	"repro/internal/relation"
)

// mkProfiles builds three datasets: orders(order_id, cust_id, total),
// customers(cust_id, name), weather(day, temp) — orders.cust_id and
// customers.cust_id share content.
func mkProfiles() []*profile.DatasetProfile {
	orders := relation.New("orders", relation.NewSchema(
		relation.Col("order_id", relation.KindInt),
		relation.Col("cust_id", relation.KindInt),
		relation.Col("total", relation.KindFloat),
	))
	customers := relation.New("customers", relation.NewSchema(
		relation.Col("cust_id", relation.KindInt),
		relation.Col("name", relation.KindString),
	))
	weather := relation.New("weather", relation.NewSchema(
		relation.Col("day", relation.KindString),
		relation.Col("temp", relation.KindFloat),
	))
	for i := 0; i < 200; i++ {
		orders.MustAppend(relation.Int(int64(i)), relation.Int(int64(i%50)), relation.Float(float64(i)*1.5))
	}
	for i := 0; i < 50; i++ {
		customers.MustAppend(relation.Int(int64(i)), relation.String_(fmt.Sprintf("cust%d", i)))
	}
	days := []string{"mon", "tue", "wed"}
	for i := 0; i < 30; i++ {
		weather.MustAppend(relation.String_(days[i%3]), relation.Float(float64(10+i%5)))
	}
	return []*profile.DatasetProfile{
		profile.Profile("orders", orders),
		profile.Profile("customers", customers),
		profile.Profile("weather", weather),
	}
}

func TestBuildFindsJoinEdge(t *testing.T) {
	ix := Build(DefaultConfig(), mkProfiles())
	edges := ix.Edges()
	found := false
	for _, e := range edges {
		cols := map[string]bool{e.A.Dataset + "." + e.A.Column: true, e.B.Dataset + "." + e.B.Column: true}
		if cols["orders.cust_id"] && cols["customers.cust_id"] {
			found = true
			if e.Containment < 0.5 {
				t.Errorf("cust_id containment = %v, want high (customers ⊆ orders keys)", e.Containment)
			}
		}
	}
	if !found {
		t.Fatalf("join edge orders.cust_id ↔ customers.cust_id not found in %d edges", len(edges))
	}
}

func TestExhaustiveMatchesLSHOnStrongEdges(t *testing.T) {
	profiles := mkProfiles()
	cfgLSH := DefaultConfig()
	cfgEx := DefaultConfig()
	cfgEx.Exhaustive = true
	lsh := Build(cfgLSH, profiles)
	ex := Build(cfgEx, profiles)
	// Every strong edge (jaccard >= 0.5) found exhaustively must be found by
	// LSH too (with 16 bands of 4 rows, P[detect | j=0.5] ≈ 1-(1-0.0625)^16 ≈ 0.64
	// per band row group — in practice identical columns always collide).
	for _, e := range ex.Edges() {
		if e.Jaccard < 0.9 {
			continue
		}
		ok := false
		for _, le := range lsh.Edges() {
			if le.A == e.A && le.B == e.B || le.A == e.B && le.B == e.A {
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("LSH missed near-identical edge %v <-> %v (j=%.2f)", e.A, e.B, e.Jaccard)
		}
	}
}

func TestNoSelfEdges(t *testing.T) {
	ix := Build(DefaultConfig(), mkProfiles())
	for _, e := range ix.Edges() {
		if e.A.Dataset == e.B.Dataset {
			t.Errorf("self edge %v <-> %v", e.A, e.B)
		}
	}
}

func TestKindMatching(t *testing.T) {
	ix := Build(DefaultConfig(), mkProfiles())
	for _, e := range ix.Edges() {
		pa := ix.Profile(e.A.Dataset).Column(e.A.Column)
		pb := ix.Profile(e.B.Dataset).Column(e.B.Column)
		num := func(k relation.Kind) bool { return k == relation.KindInt || k == relation.KindFloat }
		if pa.Kind != pb.Kind && !(num(pa.Kind) && num(pb.Kind)) {
			t.Errorf("edge between incompatible kinds %v/%v", pa.Kind, pb.Kind)
		}
	}
}

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"cust_id", []string{"cust", "id"}},
		{"CustomerName", []string{"customer", "name"}},
		{"temp-f", []string{"temp", "f"}},
		{"abc123", []string{"abc123"}},
		{"", nil},
	}
	for _, c := range cases {
		got := Tokenize(c.in)
		if len(got) != len(c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
}

func TestLookup(t *testing.T) {
	ix := Build(DefaultConfig(), mkProfiles())
	refs := ix.Lookup("cust")
	if len(refs) < 2 {
		t.Fatalf("lookup(cust) = %v, want orders+customers columns", refs)
	}
	if len(ix.Lookup("zzz_nothing")) != 0 {
		t.Error("unknown token must return nothing")
	}
}

func TestIncrementalAdd(t *testing.T) {
	profiles := mkProfiles()
	ix := Build(DefaultConfig(), profiles[:2])
	before := ix.NumEdges()
	ix.Add(profiles[2]) // weather: unrelated, should not add cust edges
	if len(ix.Datasets()) != 3 {
		t.Errorf("datasets = %v", ix.Datasets())
	}
	// Re-add an updated version of customers: no duplicate edges.
	ix.Add(profiles[1])
	if got := ix.NumEdges(); got < before {
		t.Errorf("edges dropped after re-add: %d < %d", got, before)
	}
	for _, e := range ix.Edges() {
		if e.A.Dataset == e.B.Dataset {
			t.Error("self edge after incremental add")
		}
	}
}

func TestEdgesFor(t *testing.T) {
	ix := Build(DefaultConfig(), mkProfiles())
	for _, e := range ix.EdgesFor("orders") {
		if e.A.Dataset != "orders" && e.B.Dataset != "orders" {
			t.Errorf("EdgesFor(orders) returned foreign edge %v", e)
		}
	}
	if len(ix.EdgesFor("ghost")) != 0 {
		t.Error("unknown dataset has no edges")
	}
}

// keyTable is a dataset whose only column k holds offset..offset+99: tables
// with the same offset join with Jaccard 1, so their edges tie.
func keyTable(name, col string, offset int) *profile.DatasetProfile {
	r := relation.New(name, relation.NewSchema(relation.Col(col, relation.KindInt)))
	for i := 0; i < 100; i++ {
		r.MustAppend(relation.Int(int64(offset + i)))
	}
	return profile.Profile(name, r)
}

// filterStable is the reference EdgesFor: every edge touching dataset, in
// insertion order, stably sorted by descending Jaccard.
func filterStable(ix *Index, dataset string) []JoinEdge {
	var out []JoinEdge
	for _, e := range ix.edges {
		if e.A.Dataset == dataset || e.B.Dataset == dataset {
			out = append(out, e)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Jaccard > out[j].Jaccard })
	return out
}

// TestEdgesForStableUnderGrowth pins the ordering the DoD engine's cached
// mashups depend on: indexing another dataset never reorders the edges of
// an existing one, even past the 12 elements below which an unstable sort
// happens to keep ties in place.
func TestEdgesForStableUnderGrowth(t *testing.T) {
	ix := Build(DefaultConfig(), nil)
	ix.Add(keyTable("hub", "k", 0))
	// Three overlap levels, interleaved, so the sort has to move edges and
	// each level holds more than 12 ties on some dataset.
	for i := 0; i < 24; i++ {
		ix.Add(keyTable(fmt.Sprintf("spoke%02d", i), "k", []int{0, 30, 60}[i%3]))
	}
	if got := len(ix.EdgesFor("hub")); got != 24 {
		t.Fatalf("hub has %d edges, want 24", got)
	}
	before := map[string][]JoinEdge{}
	for _, d := range ix.Datasets() {
		before[d] = ix.EdgesFor(d)
	}
	// A dataset that joins none of them, then one that joins all of them.
	ix.Add(keyTable("island", "k", 5000))
	ix.Add(keyTable("late", "k", 0))
	for d, old := range before {
		got := ix.EdgesFor(d)
		if fmt.Sprint(got) != fmt.Sprint(filterStable(ix, d)) {
			t.Errorf("EdgesFor(%s) differs from filter + stable sort", d)
		}
		var kept []JoinEdge
		for _, e := range got {
			if e.A.Dataset != "late" && e.B.Dataset != "late" {
				kept = append(kept, e)
			}
		}
		if len(got) != len(old)+1 {
			t.Errorf("EdgesFor(%s): %d edges, want %d + the one to late", d, len(got), len(old))
		}
		if fmt.Sprint(kept) != fmt.Sprint(old) {
			t.Errorf("EdgesFor(%s) reordered by edges of other datasets", d)
		}
	}
	if len(ix.EdgesFor("island")) != 0 {
		t.Error("island joins nothing")
	}
	// Re-indexing a dataset drops its edges and re-adds them; the others'
	// lists are rebuilt in insertion order.
	ix.Add(keyTable("spoke03", "k", 0))
	for _, d := range ix.Datasets() {
		if fmt.Sprint(ix.EdgesFor(d)) != fmt.Sprint(filterStable(ix, d)) {
			t.Errorf("after re-index, EdgesFor(%s) differs from filter + stable sort", d)
		}
	}
}
