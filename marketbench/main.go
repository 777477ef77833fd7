// Command marketbench drives the data market through its public entry
// points under one named workload and prints the end-to-end figures (or,
// with --trace 1, the per-layer figures of a traced run) as one JSON line.
//
//	bash marketbench/run.sh --workload join-build --seed 1 --seconds 33 --trace 0
//
// A run makes three passes. Each sets a fresh market up, offers open-loop
// Poisson arrivals at the workload's fixed rate (the paced stage), then
// runs a fixed amount of work with a fixed window of unsettled requests per
// client (the saturate stage), drains, and checks the market's invariants;
// the run reports the median of the passes' figures. Any failed check makes
// the run exit non-zero. See README.md for the workloads and what each
// metric is expected to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the untraced run's metrics and their units.
var endToEnd = [][2]string{
	{"setup_s", "s"},
	{"settle_p50_ms", "ms"},
	{"settle_p99_ms", "ms"},
	{"sustained_mps", "matches/s"},
	{"satisfaction_mean", "ratio"},
	{"heap_live_mb", "MiB"},
}

// perLayerUnits lists the traced run's metrics and their units. The first
// group are end-to-end figures that only some workloads have, taken from
// the untraced pass of the same run.
var perLayerUnits = [][2]string{
	{"share_p50_ms", "ms"}, {"share_p99_ms", "ms"},
	{"xshard_settle_p50_ms", "ms"}, {"xshard_settle_p95_ms", "ms"},
	{"fail_ratio", "ratio"},
	{"trace.overhead_settle_p50_ms", "ms"}, {"trace.overhead_sustained_mps", "matches/s"},
	{"loadgen.late_p99_ms", "ms"}, {"loadgen.offered", "count"},
	{"dmms.post_request_ms.p50", "ms"}, {"dmms.post_request_ms.p99", "ms"}, {"dmms.non_2xx", "count"},
	{"engine.submit_us.p50", "us"}, {"engine.submit_us.p99", "us"},
	{"engine.pending_max", "count"}, {"engine.shed", "count"},
	{"engine.epochs", "count"}, {"engine.batch_mean", "count"},
	{"engine.epoch_ms.p50", "ms"}, {"engine.epoch_ms.p99", "ms"},
	{"engine.epoch_self_ms_per_epoch", "ms"}, {"engine.busy_ratio", "ratio"},
	{"index.apply_ms_per_share", "ms"}, {"index.datasets", "count"}, {"index.edges", "count"},
	{"dod.builds_per_epoch", "count"}, {"dod.build_ms.p50", "ms"}, {"dod.build_ms.p99", "ms"},
	{"dod.build_ms_per_epoch", "ms"}, {"dod.cache_hit_ratio", "ratio"},
	{"dod.stale_per_epoch", "count"}, {"dod.subjoin_hits_per_build", "count"},
	{"relation.rows_streamed_per_match", "count"}, {"relation.materializations_per_build", "count"},
	{"arbiter.price_self_ms_per_epoch", "ms"},
	{"market.evals_per_match", "count"}, {"market.memo_hit_ratio", "ratio"}, {"market.sampled_runs", "count"},
	{"wal.persist_us.p50", "us"}, {"wal.persist_us.p99", "us"},
	{"wal.epoch_end_persist_ms.p99", "ms"}, {"wal.persist_ms_per_epoch", "ms"}, {"wal.bytes_per_event", "B"},
	{"ledger.audit_entries_per_match", "count"},
	{"federation.coord_round_ms.p50", "ms"}, {"federation.coord_round_ms.p99", "ms"},
	{"federation.coord_ms_per_xshard", "ms"}, {"federation.shard_epoch_ms.p99", "ms"},
	{"federation.shard_busy_skew", "ratio"},
	{"federation.xtx_committed", "count"}, {"federation.xtx_aborted", "count"},
	{"runtime.alloc_mb_per_1k_matches", "MiB"}, {"runtime.gc_cycles", "count"}, {"runtime.gc_pause_ms", "ms"},
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds per pass (paced + saturate stages)")
	trace := flag.Int("trace", 0, "1 = also run a traced pass and report per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "marketbench"), "directory for WAL files and span files")
	flag.Parse()
	// On two cores the default GC pacing runs a few large mark cycles per
	// stage, and where they fell moved one seed's throughput by about 12%
	// from run to run (2% with these settings). A higher GOGC under a
	// memory limit keeps the cycles rare while bounding the heap.
	debug.SetGCPercent(400)
	debug.SetMemoryLimit(512 << 20)
	code, err := run(*workload, *seed, *seconds, *trace == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "marketbench:", err)
	}
	os.Exit(code)
}

// passes is how many times an untraced run sets the market up afresh and
// runs both stages; it reports the median of the passes' figures, so a
// host that stalls the market during one pass does not move them.
const passes = 3

// run returns the exit code: 0 when every gate passed, 1 when a gate
// failed (the result is still printed), 2 when the run could not be
// measured (nothing is printed). Every pass lasts seconds/passes; a traced
// run makes one untraced and one traced pass.
func run(workload string, seed int64, seconds float64, traced bool, out string) (int, error) {
	s, err := newSpec(workload, seed)
	if err != nil {
		return 2, err
	}
	dir := filepath.Join(out, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 2, err
	}
	defer os.RemoveAll(dir)
	perPass := seconds / passes
	n := passes
	if traced {
		n = 1
	}
	printInputs(s, perPass, n)
	// The first pass sets up several times (see pass.run); setup_s is the
	// median of every set-up of the run.
	var plain []*pass
	var gates []string
	res := result{Metrics: map[string]metric{}}
	for k := 0; k < n; k++ {
		setups := 1
		if k == 0 && !traced {
			setups = minSetups
		}
		p := &pass{s: s, seed: passSeed(seed, k), seconds: perPass, setups: setups,
			dir: filepath.Join(dir, fmt.Sprintf("plain-%d", k))}
		if err := p.run(); err != nil {
			return 2, err
		}
		gates = append(gates, p.gates...)
		printFigures(fmt.Sprintf("untraced pass %d", k), p, p.f)
		res.Attempted += p.f.attempted
		res.Failed += p.f.failed
		plain = append(plain, p)
	}
	e2e, qerr := endToEndFigures(plain)
	gates = append(gates, qerr...)
	if !traced {
		for _, m := range endToEnd {
			res.Metrics[m[0]] = metric{Value: e2e[m[0]], Unit: m[1]}
		}
	} else {
		f := plain[0].f
		tp := &pass{s: s, seed: plain[0].seed, tr: newTracer(), seconds: perPass, setups: 1,
			dir: filepath.Join(dir, "traced")}
		if err := tp.run(); err != nil {
			return 2, err
		}
		gates = append(gates, tp.gates...)
		tf := tp.f
		printFigures("traced", tp, tf)
		layers := tp.layers
		extra := func(name string, smp *sample, q float64) {
			v, eff := smp.tail(q)
			layers[name] = v
			if smp.n() > 0 && eff < q {
				fmt.Printf("note: %s reports p%.1f (n=%d): too few samples for p%g\n", name, eff*100, smp.n(), q*100)
			}
		}
		extra("share_p50_ms", &f.share, 0.5)
		extra("share_p99_ms", &f.share, 0.99)
		extra("xshard_settle_p50_ms", &f.xshard, 0.5)
		extra("xshard_settle_p95_ms", &f.xshard, 0.95)
		layers["fail_ratio"] = ratio(float64(f.failed), float64(f.attempted))
		tp50, _ := tf.settle.tail(0.5)
		layers["trace.overhead_settle_p50_ms"] = tp50 - e2e["settle_p50_ms"]
		layers["trace.overhead_sustained_mps"] = tf.sustained - f.sustained
		fmt.Printf("tracing overhead: settle_p50 %+.3f ms, sustained %+.1f matches/s\n",
			layers["trace.overhead_settle_p50_ms"], layers["trace.overhead_sustained_mps"])
		for _, m := range perLayerUnits {
			v, ok := layers[m[0]]
			if !ok {
				return 2, fmt.Errorf("per-layer metric %s was not computed", m[0])
			}
			res.Metrics[m[0]] = metric{Value: v, Unit: m[1]}
		}
		path := filepath.Join(out, fmt.Sprintf("spans-%s-%d.jsonl", s.name, seed))
		if err := writeSpans(path, tp.tr.snapshot()); err != nil {
			return 2, err
		}
		fmt.Printf("spans: %s\n", path)
		res.Attempted, res.Failed = tf.attempted, tf.failed
	}
	for _, g := range gates {
		fmt.Println("GATE FAILED:", g)
	}
	res.Correct = len(gates) == 0
	line, err := json.Marshal(res)
	if err != nil {
		return 2, err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1, fmt.Errorf("%d correctness gates failed", len(gates))
	}
	return 0, nil
}

// endToEndFigures computes the end-to-end metrics of a run's untraced
// passes: setup_s is the median of all their set-ups, every other figure
// the median of the passes' own. A quantile with fewer than ten samples
// beyond it, in any pass, is a failed gate.
func endToEndFigures(ps []*pass) (map[string]float64, []string) {
	var errs []string
	var setups []float64
	per := map[string][]float64{}
	for _, p := range ps {
		f := p.f
		quant := func(smp *sample, q float64) float64 {
			v, err := smp.quantile(q)
			if err != nil {
				errs = append(errs, err.Error())
			}
			return v
		}
		setups = append(setups, p.setupS...)
		for name, v := range map[string]float64{
			"settle_p50_ms":     quant(&f.settle, 0.5),
			"settle_p99_ms":     quant(&f.settle, 0.99),
			"sustained_mps":     f.sustained,
			"satisfaction_mean": f.satisfaction.mean(),
			"heap_live_mb":      p.heapMB,
		} {
			per[name] = append(per[name], v)
		}
	}
	out := map[string]float64{"setup_s": median(setups)}
	for name, vs := range per {
		out[name] = median(vs)
	}
	return out, errs
}

func printInputs(s *spec, seconds float64, passes int) {
	rows := 0
	for _, d := range s.catalog {
		rows += d.rel.NumRows()
	}
	shares := "none"
	if s.shareGap > 0 {
		shares = fmt.Sprintf("1 per %d submissions", s.shareGap)
	}
	xs := 0
	for _, g := range s.groups {
		if g.xshard {
			xs++
		}
	}
	fmt.Printf("inputs: workload=%s seed=%d datasets=%d rows=%d want_groups=%d (spanning %d) buyers=%d shares=%s "+
		"paced_requests~%.0f rate=%.0f/s window=%d/client seconds=%g/pass passes=%d\n",
		s.name, s.seed, len(s.catalog), rows, len(s.groups), xs, len(s.buyers), shares,
		s.rate*seconds*s.pacedShare, s.rate, s.window, seconds, passes)
}

func printFigures(label string, p *pass, f *figures) {
	line := func(smp *sample, qs ...float64) {
		if smp.n() == 0 {
			return
		}
		parts := []string{fmt.Sprintf("n=%d", smp.n())}
		for _, q := range qs {
			v, eff := smp.tail(q)
			tag := fmt.Sprintf("p%g=%.3f", q*100, v)
			if eff < q {
				tag += fmt.Sprintf(" (p%.1f: too few samples)", eff*100)
			}
			parts = append(parts, tag)
		}
		fmt.Printf("%s %s: %s\n", label, smp.name, strings.Join(parts, " "))
	}
	fmt.Printf("%s setup_s: %v\n", label, p.setupS)
	line(&f.settle, 0.5, 0.99)
	line(&f.share, 0.5, 0.99)
	line(&f.xshard, 0.5, 0.95)
	line(&f.late, 0.5, 0.99)
	fmt.Printf("%s saturate: %d submissions in %.2f s\n", label, p.satBudget, p.sat[1].Sub(p.sat[0]).Seconds())
	fmt.Printf("%s attempted=%d failed=%d settled=%d spanning_settled=%d sustained=%.1f matches/s satisfaction=%.4f heap=%.1f MiB\n",
		label, f.attempted, f.failed, f.settled, f.xsettled, f.sustained, f.satisfaction.mean(), p.heapMB)
	reasons := make([]string, 0, len(f.reasons))
	for r, n := range f.reasons {
		reasons = append(reasons, fmt.Sprintf("%d x %s", n, r))
	}
	sort.Strings(reasons)
	for _, r := range reasons {
		fmt.Printf("%s failed: %s\n", label, r)
	}
	// An open-loop generator that runs late measures its own scheduling,
	// not the market.
	late, _ := f.late.tail(0.99)
	p50, _ := f.settle.tail(0.5)
	if f.late.n() > 0 && late > 0.25*p50 {
		fmt.Printf("WARNING: %s load generator p99 lateness %.3f ms is %.0f%% of settle_p50 %.3f ms\n",
			label, late, 100*late/p50, p50)
	}
}
