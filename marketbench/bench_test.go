package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

// inputSequence fingerprints everything a workload feeds the market: the
// seeded catalog, the want groups, and every pass's paced schedule and the
// first ops of its generator lanes.
func inputSequence(t *testing.T, name string, seed int64) string {
	t.Helper()
	s, err := newSpec(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for _, d := range s.catalog {
		fmt.Fprintf(h, "%s|%s|%v\n", d.seller, d.id, d.rel.Rows)
	}
	for _, g := range s.groups {
		fmt.Fprintf(h, "%v|%v|%v\n", g.cols, g.buyers, g.weight)
	}
	for k := 0; k < passes; k++ {
		ps := passSeed(seed, k)
		fmt.Fprintf(h, "%v\n", poisson(newRand(ps, 1), s.rate, 200))
		for lane := 0; lane < 2; lane++ {
			gen := s.ops(mix(ps, int64(2+lane)), lane, 2)
			for i := 0; i < 600; i++ {
				o := gen.next()
				if o.share != nil {
					fmt.Fprintf(h, "share %s %s %v\n", o.share.seller, o.share.id, o.share.rel.Rows)
				} else {
					fmt.Fprintf(h, "req %d %s\n", o.group, o.buyer)
				}
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum64())
}

func TestPassesDrawDifferentSchedules(t *testing.T) {
	a := poisson(newRand(passSeed(7, 0), 1), 100, 50)
	b := poisson(newRand(passSeed(7, 1), 1), 100, 50)
	if slices.Equal(a, b) {
		t.Error("passes 0 and 1 of seed 7 drew the same paced schedule")
	}
}

func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := inputSequence(t, w, 7), inputSequence(t, w, 7)
		if a != b {
			t.Errorf("%s: seed 7 gave two different input sequences", w)
		}
		if c := inputSequence(t, w, 8); c == a {
			t.Errorf("%s: seeds 7 and 8 gave the same input sequence", w)
		}
	}
}

func TestOpMixMatchesSpec(t *testing.T) {
	s, err := newSpec("catalog-churn", 3)
	if err != nil {
		t.Fatal(err)
	}
	gen := s.ops(1, 0, 1)
	shares, ids := 0, map[string]bool{}
	for i := 0; i < 4000; i++ {
		if o := gen.next(); o.share != nil {
			shares++
			if ids[o.share.id] {
				t.Fatalf("fresh share ID %s repeats", o.share.id)
			}
			ids[o.share.id] = true
		}
	}
	if shares != 1000 {
		t.Errorf("catalog-churn: %d shares in 4000 ops, want 1 in 4", shares)
	}
	x, err := newSpec("cross-shard", 3)
	if err != nil {
		t.Fatal(err)
	}
	gen, spanning := x.ops(2, 0, 1), 0
	for i := 0; i < 8000; i++ {
		if x.groups[gen.next().group].xshard {
			spanning++
		}
	}
	if got := float64(spanning) / 8000; math.Abs(got-0.25) > 0.02 {
		t.Errorf("cross-shard: %.3f of wants span shards, want about 1 in 4", got)
	}
}

func TestPoissonMeanRate(t *testing.T) {
	for _, rate := range []float64{50, 700, 2000} {
		const n = 40000
		offs := poisson(newRand(11, 1), rate, n)
		got := n / offs[n-1]
		if math.Abs(got-rate)/rate > 0.02 {
			t.Errorf("rate %g: schedule runs at %.1f arrivals/s", rate, got)
		}
		for i := 1; i < n; i++ {
			if offs[i] <= offs[i-1] {
				t.Fatalf("rate %g: arrival %d not after arrival %d", rate, i, i-1)
			}
		}
	}
}

func TestNearestRankQuantiles(t *testing.T) {
	s := &sample{name: "x"}
	for i := 1000; i >= 1; i-- { // unsorted on purpose
		s.add(float64(i))
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 500}, {0.95, 950}, {0.99, 990}, {0.001, 1}} {
		got, err := s.quantile(c.q)
		if err != nil || got != c.want {
			t.Errorf("p%g of 1..1000 = %v, %v; want %v", c.q*100, got, err, c.want)
		}
	}
	// 999 samples leave only 9 beyond the p99 rank: refused.
	short := &sample{name: "short"}
	for i := 1; i <= 999; i++ {
		short.add(float64(i))
	}
	if _, err := short.quantile(0.99); err == nil {
		t.Error("p99 of 999 samples was reported; it has only 9 samples beyond it")
	}
	if v, err := short.quantile(0.5); err != nil || v != 500 {
		t.Errorf("p50 of 1..999 = %v, %v; want 500", v, err)
	}
	// tail falls back to the rank that keeps ten samples beyond it.
	small := &sample{name: "small"}
	for i := 1; i <= 50; i++ {
		small.add(float64(i))
	}
	if v, eff := small.tail(0.99); v != 40 || eff != 0.8 {
		t.Errorf("tail p99 of 1..50 = %v at p%g; want 40 at p80", v, eff*100)
	}
	if v, _ := (&sample{}).tail(0.5); v != 0 {
		t.Errorf("tail of no samples = %v, want 0", v)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []Span{
		{Seq: 1, Name: "engine.epoch", Start: 0, End: 100},
		{Seq: 2, Name: "arbiter.price", Parent: 1, Start: 40, End: 90},
		{Seq: 3, Name: "dod.build", Parent: 2, Start: 45, End: 60},
		{Seq: 4, Name: "dod.build", Parent: 2, Start: 55, End: 70}, // overlaps the first
		{Seq: 5, Name: "wal.persist", Parent: 1, Start: 10, End: 20},
		{Seq: 6, Name: "wal.persist", Parent: 1, Start: 85, End: 110}, // runs past its parent
		{Seq: 7, Name: "settle", Start: 5, End: 5},
	}
	got := selfTimes(spans)
	// epoch: 100 minus [10,20) + [40,100) = 30
	// price: 50 minus the union [45,70) = 25
	want := []int64{30, 25, 15, 15, 10, 25, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s) self time %d, want %d", i+1, spans[i].Name, got[i], want[i])
		}
	}
}

func TestTracerNilIsInert(t *testing.T) {
	var tr *tracer
	if seq := tr.add("x", "1", 0, time.Time{}, time.Time{}, ""); seq != 0 {
		t.Errorf("nil tracer returned span %d", seq)
	}
	tr.update(1, func(*Span) { t.Error("nil tracer edited a span") })
	tr.finish(1, time.Time{})
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics the
// command prints in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside this directory")
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want [][2]string) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the command prints %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i][0] || got[i].Unit != want[i][1] {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the command prints %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i][0], want[i][1])
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayerUnits)
	// BENCHMARK.json may leave a workload out (catalog-churn needs longer
	// runs than its run_seconds); it may not name one the command lacks.
	for _, w := range b.Workloads {
		if !slices.Contains(workloads, w.Name) {
			t.Errorf("BENCHMARK.json names workload %s, the command has %v", w.Name, workloads)
		}
	}
}

// TestEndToEndFiguresArePassMedians: setup_s is the median of every
// set-up of the run, each other figure the median of the passes' own, and
// a pass without the samples for its p99 fails a gate.
func TestEndToEndFiguresArePassMedians(t *testing.T) {
	mk := func(setups []float64, lo, sustained, heap float64) *pass {
		f := &figures{sustained: sustained}
		for i := 0; i < 1000; i++ {
			f.settle.add(lo + float64(i))
		}
		f.satisfaction.add(1)
		return &pass{setupS: setups, heapMB: heap, f: f}
	}
	ps := []*pass{
		mk([]float64{5, 1, 2, 9, 8}, 0, 100, 30),
		mk([]float64{3}, 1000, 90, 10), // a stalled pass
		mk([]float64{4}, 10, 110, 20),
	}
	got, errs := endToEndFigures(ps)
	if len(errs) != 0 {
		t.Fatalf("gates failed: %v", errs)
	}
	want := map[string]float64{"setup_s": 4, "settle_p50_ms": 509, "settle_p99_ms": 999,
		"sustained_mps": 100, "satisfaction_mean": 1, "heap_live_mb": 20}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
	ps[1].f.settle.vals = ps[1].f.settle.vals[:999]
	if _, errs := endToEndFigures(ps); len(errs) != 1 {
		t.Errorf("a pass with 999 samples gave %d failed gates, want 1 (its p99)", len(errs))
	}
}
