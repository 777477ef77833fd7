package engine

import (
	"strconv"
	"sync"
	"time"

	"repro/internal/dod"
	"repro/internal/market"
	"repro/internal/obs"
	"repro/internal/relation"
)

// engineMetrics is the engine's telemetry surface: instruments registered on
// the Config.Metrics registry plus the request tracer. It is always
// constructed (never nil on a live engine) but with a nil registry every
// instrument inside is nil — and obs instruments are nil-safe no-ops — so
// instrumented code paths carry no "telemetry enabled?" branches beyond the
// on() guard that skips timestamp capture.
//
// Everything here is derived state: metrics observe the event flow, they
// never join it. No instrument writes to the event log or WAL, which is what
// keeps the crash/replay matrix byte-identical with telemetry enabled.
type engineMetrics struct {
	enabled bool
	// label is the federation shard label (Config.ShardLabel). When set, the
	// unlabeled families below are shared with sibling shard engines on the
	// same registry (idempotent registration returns one instrument, so they
	// aggregate across the federation), and the sh* vec children add the
	// per-shard view under `shard`-labeled families. The tracer histograms
	// stay unlabeled on purpose: submit→settle latency is a market-wide
	// figure, and consumers (the bench artifact) pull them back by name as
	// plain histograms.
	label string

	epochDur   *obs.Histogram  // engine_epoch_seconds
	epochLag   *obs.Histogram  // engine_epoch_lag_seconds
	roundDur   *obs.Histogram  // arbiter_round_seconds
	shardDepth []*obs.Gauge    // engine_intake_queue_depth{shard}
	rejections *obs.CounterVec // engine_admission_rejections_total{reason}
	aged       *obs.Counter    // engine_aged_requests_total
	workerBusy *obs.CounterVec // dod_worker_busy_seconds_total{worker}
	tracer     *obs.Tracer     // submit→settle spans

	// Per-shard views, nil unless label != "".
	shEpochDur   *obs.Histogram  // engine_shard_epoch_seconds{shard}
	shRoundDur   *obs.Histogram  // engine_shard_round_seconds{shard}
	shRejections *obs.CounterVec // engine_shard_admission_rejections_total{shard,reason}
	shAged       *obs.Counter    // engine_shard_aged_requests_total{shard}
	shDepth      []*obs.Gauge    // engine_shard_intake_queue_depth{shard,queue}

	mu        sync.Mutex
	lastEpoch time.Time // previous counted epoch's completion, for lag
}

// on reports whether telemetry is live (and guards time.Now() capture on hot
// paths, so a metrics-less engine pays nothing).
func (m *engineMetrics) on() bool { return m != nil && m.enabled }

// newEngineMetrics registers the engine's instruments on reg. A nil reg
// yields a disabled (but non-nil) sink. A non-empty label (a federation
// shard index) adds the per-shard labeled families next to the shared
// unlabeled aggregates.
func newEngineMetrics(reg *obs.Registry, shards int, label string) *engineMetrics {
	if reg == nil {
		return &engineMetrics{}
	}
	m := &engineMetrics{
		enabled: true,
		label:   label,
		epochDur: reg.NewHistogram("engine_epoch_seconds",
			"Wall-clock duration of counted epochs (drain, apply, build, price, publish).", obs.DefBuckets),
		epochLag: reg.NewHistogram("engine_epoch_lag_seconds",
			"Gap between consecutive counted epochs.", obs.DefBuckets),
		roundDur: reg.NewHistogram("arbiter_round_seconds",
			"Wall-clock duration of the pricing stage of each matching round.", obs.DefBuckets),
		rejections: reg.NewCounterVec("engine_admission_rejections_total",
			"Submissions rejected by admission control, by reason.", "reason"),
		aged: reg.NewCounter("engine_aged_requests_total",
			"Requests the matching policy's per-epoch cap deferred at least once."),
		workerBusy: reg.NewCounterVec("dod_worker_busy_seconds_total",
			"Cumulative busy time of each DoD builder-pool worker.", "worker"),
		tracer: obs.NewTracer(
			reg.NewHistogram("engine_submit_to_settle_seconds",
				"End-to-end latency from request submission to settlement.", obs.DefBuckets),
			reg.NewHistogramVec("engine_stage_seconds",
				"Latency of each request pipeline stage (delta from the previous stamped stage).",
				obs.DefBuckets, "stage"),
			0),
	}
	// Intake depth moves by deltas, so sibling shard engines sharing this
	// family sum per intake queue.
	queueDepth := reg.NewGaugeVec("engine_intake_queue_depth",
		"Queued submissions per intake shard.", "shard")
	m.shardDepth = make([]*obs.Gauge, shards)
	for i := range m.shardDepth {
		m.shardDepth[i] = queueDepth.With(strconv.Itoa(i))
	}
	if label != "" {
		m.shEpochDur = reg.NewHistogramVec("engine_shard_epoch_seconds",
			"Wall-clock duration of counted epochs, per federation shard.",
			obs.DefBuckets, "shard").With(label)
		m.shRoundDur = reg.NewHistogramVec("engine_shard_round_seconds",
			"Wall-clock duration of the pricing stage, per federation shard.",
			obs.DefBuckets, "shard").With(label)
		m.shRejections = reg.NewCounterVec("engine_shard_admission_rejections_total",
			"Admission rejections per federation shard, by reason.", "shard", "reason")
		m.shAged = reg.NewCounterVec("engine_shard_aged_requests_total",
			"Policy-deferred requests per federation shard.", "shard").With(label)
		shDepth := reg.NewGaugeVec("engine_shard_intake_queue_depth",
			"Queued submissions per federation shard and intake queue.", "shard", "queue")
		m.shDepth = make([]*obs.Gauge, shards)
		for i := range m.shDepth {
			m.shDepth[i] = shDepth.With(label, strconv.Itoa(i))
		}
	}
	return m
}

// observeRejection counts one admission rejection by reason, on the shared
// family and (when labeled) the per-shard one.
func (m *engineMetrics) observeRejection(reason string, n float64) {
	if !m.on() {
		return
	}
	m.rejections.With(reason).Add(n)
	if m.shRejections != nil {
		m.shRejections.With(m.label, reason).Add(n)
	}
}

// observeAged counts one first-time policy deferral.
func (m *engineMetrics) observeAged() {
	if !m.on() {
		return
	}
	m.aged.Inc()
	m.shAged.Inc() // nil-safe no-op when unlabeled
}

// observeRound records one pricing stage's wall clock.
func (m *engineMetrics) observeRound(seconds float64) {
	m.roundDur.Observe(seconds)
	m.shRoundDur.Observe(seconds) // nil-safe no-op when unlabeled
}

// observeEpoch records a counted epoch's duration and its lag behind the
// previous counted epoch.
func (m *engineMetrics) observeEpoch(start time.Time) {
	end := time.Now()
	m.epochDur.Observe(end.Sub(start).Seconds())
	m.shEpochDur.Observe(end.Sub(start).Seconds()) // nil-safe no-op when unlabeled
	m.mu.Lock()
	last := m.lastEpoch
	m.lastEpoch = end
	m.mu.Unlock()
	if !last.IsZero() {
		m.epochLag.Observe(start.Sub(last).Seconds())
	}
}

// observeWorkerBusy accounts one build's wall clock to a pool worker.
func (m *engineMetrics) observeWorkerBusy(worker int, seconds float64) {
	if !m.on() {
		return
	}
	m.workerBusy.With(strconv.Itoa(worker)).Add(seconds)
}

// addDepth moves intake queue i's depth gauges by delta (no-op when off).
func (m *engineMetrics) addDepth(i int, delta float64) {
	if !m.on() {
		return
	}
	m.shardDepth[i].Add(delta)
	if m.shDepth != nil {
		m.shDepth[i].Add(delta)
	}
}

// RegisterSampledMetrics registers the sampled families — counters and
// gauges other subsystems already maintain as atomics — summed over engs.
// It is the one declaration of these names: a bare engine registers them
// over itself, a federation over its shards. outside, when non-nil, adds
// settles and open wants that live beside the engines (a federation's
// cross-shard coordinator) to engine_matched_total and
// arbiter_open_requests. Re-registering replaces the sampled closures.
// Sampling happens at scrape time; none of these closures touch epochMu,
// so a scrape can never stall an epoch runner.
func RegisterSampledMetrics(reg *obs.Registry, engs []*Engine, outside func() (matched uint64, open int)) {
	if outside == nil {
		outside = func() (uint64, int) { return 0, 0 }
	}
	sum := func(f func(e *Engine) float64) func() float64 {
		return func() float64 {
			var t float64
			for _, e := range engs {
				t += f(e)
			}
			return t
		}
	}
	cache := func(f func(c dod.CacheStats) uint64) func() float64 {
		return sum(func(e *Engine) float64 { return float64(f(e.platform.DoDCacheStats())) })
	}
	counter := func(name, help string, f func(e *Engine) float64) { reg.NewCounterFunc(name, help, sum(f)) }
	gauge := func(name, help string, f func(e *Engine) float64) { reg.NewGaugeFunc(name, help, sum(f)) }

	counter("engine_epochs_total", "Counted epochs since boot.",
		func(e *Engine) float64 { return float64(e.epoch.Load()) })
	counter("engine_submitted_total", "Submissions accepted into intake.",
		func(e *Engine) float64 { return float64(e.stSubmitted.Load()) })
	counter("engine_applied_total", "Submissions applied successfully.",
		func(e *Engine) float64 { return float64(e.stApplied.Load()) })
	matched := sum(func(e *Engine) float64 { return float64(e.stMatched.Load()) })
	reg.NewCounterFunc("engine_matched_total", "Requests settled by matching rounds.",
		func() float64 { n, _ := outside(); return matched() + float64(n) })
	counter("engine_failed_total", "Submissions rejected at apply time.",
		func(e *Engine) float64 { return float64(e.stFailed.Load()) })
	gauge("engine_pending_submissions", "Submissions queued across all intake shards.",
		func(e *Engine) float64 { return float64(e.pending.Load()) })
	open := sum(func(e *Engine) float64 { return float64(e.platform.OpenRequestCount()) })
	reg.NewGaugeFunc("arbiter_open_requests", "Requests filed but not yet matched.",
		func() float64 { _, n := outside(); return open() + float64(n) })
	gauge("arbiter_unmet_wants", "Distinct wanted columns carrying unmet-demand signals.",
		func(e *Engine) float64 { return float64(e.platform.UnmetWantCount()) })

	reg.NewCounterFunc("dod_builds_total", "Beam searches actually run by the DoD engine.",
		cache(func(c dod.CacheStats) uint64 { return c.Builds }))
	reg.NewCounterFunc("dod_cache_hits_total", "Version-valid candidate-cache reuses.",
		cache(func(c dod.CacheStats) uint64 { return c.Hits }))
	reg.NewCounterFunc("dod_cache_stale_total", "Cache lookups invalidated by a catalog version bump.",
		cache(func(c dod.CacheStats) uint64 { return c.Stale }))
	reg.NewCounterFunc("dod_cache_restamped_total",
		"Cached candidate sets carried to a new catalog version by a share they cannot enter.",
		cache(func(c dod.CacheStats) uint64 { return c.Restamped }))
	reg.NewCounterFunc("dod_cache_misses_total", "Cache lookups with no reusable entry.",
		cache(func(c dod.CacheStats) uint64 { return c.Misses }))
	reg.NewCounterFunc("dod_cache_evictions_total",
		"Candidate-cache entries evicted to enforce the MaxEntries bound.",
		cache(func(c dod.CacheStats) uint64 { return c.Evictions }))
	reg.NewGaugeFunc("dod_cache_entries", "Current candidate-cache population.",
		cache(func(c dod.CacheStats) uint64 { return uint64(c.Entries) }))
	reg.NewCounterFunc("dod_build_deadline_exceeded_total",
		"Build requests abandoned because they outran Config.BuildDeadline.",
		cache(func(c dod.CacheStats) uint64 { return c.DeadlineExceeded }))
	reg.NewCounterFunc("dod_builds_cancelled_total",
		"Build requests abandoned to cancellation (shutdown, cancel-on-settle).",
		cache(func(c dod.CacheStats) uint64 { return c.Cancelled }))
	counter("dod_worker_panics_total",
		"Builds that panicked and were isolated to their want group (DoD recover plus pool backstop).",
		func(e *Engine) float64 {
			n := float64(e.platform.DoDCacheStats().Panics)
			if e.pool != nil {
				n += float64(e.pool.panics.Load())
			}
			return n
		})
	gauge("dod_build_queue_depth", "Build jobs dispatched to the worker pool and not yet picked up.",
		func(e *Engine) float64 {
			if e.pool == nil {
				return 0
			}
			return float64(e.pool.queued.Load())
		})
	reg.NewCounterFunc("dod_subjoin_memo_hits_total",
		"Join prefixes reused from the per-build sub-join memo during candidate materialization.",
		cache(func(c dod.CacheStats) uint64 { return c.SubJoinHits }))
	counter("engine_price_seconds_total",
		"Cumulative wall-clock time spent in the price stage of matching rounds.",
		func(e *Engine) float64 { return float64(e.stPriceNanos.Load()) / 1e9 })

	// The relation streaming and revenue-allocator counters sample their
	// packages' process-wide atomics (allocators are value types), so they
	// are read once, not per engine.
	reg.NewCounterFunc("relation_rows_streamed_total",
		"Rows drained through relation iterator pipelines into materialized results.",
		func() float64 { rows, _ := relation.StreamCounters(); return float64(rows) })
	reg.NewCounterFunc("relation_materializations_total",
		"Iterator pipelines materialized into relations.",
		func() float64 { _, mats := relation.StreamCounters(); return float64(mats) })
	reg.NewCounterFunc("market_allocator_evals_total",
		"Characteristic-function evaluations run by revenue allocators.",
		func() float64 { return float64(market.AllocCounters().Evals) })
	reg.NewCounterFunc("market_allocator_memo_hits_total",
		"Allocator coalition-value evaluations answered from a round memo.",
		func() float64 { return float64(market.AllocCounters().MemoHits) })
	reg.NewCounterFunc("market_allocator_exact_total",
		"Revenue allocations solved by exact Shapley enumeration.",
		func() float64 { return float64(market.AllocCounters().ExactRuns) })
	reg.NewCounterFunc("market_allocator_sampled_total",
		"Revenue allocations solved by permutation-sampled Shapley.",
		func() float64 { return float64(market.AllocCounters().SampledRuns) })
	reg.NewCounterFunc("market_allocator_escalations_total",
		"Exact-Shapley requests auto-escalated to sampling on wide mashups.",
		func() float64 { return float64(market.AllocCounters().Escalations) })
	reg.NewCounterFunc("market_allocator_incremental_total",
		"Incremental one-dataset-added split updates.",
		func() float64 { return float64(market.AllocCounters().Incremental) })
}

// stampOpen stamps stage s now on the tickets of the given open requests
// (nil ids = every open request). Caller holds epochMu.
func (e *Engine) stampOpen(ids []string, s obs.Stage) {
	now := time.Now()
	if ids == nil {
		for _, ticket := range e.openReqs {
			e.m.tracer.Stamp(ticket, s, now)
		}
		return
	}
	for _, id := range ids {
		if ticket, ok := e.openReqs[id]; ok {
			e.m.tracer.Stamp(ticket, s, now)
		}
	}
}

// TicketTrace returns the stamped pipeline stages of one submission's span
// (nil when telemetry is off or the span is unknown/evicted).
func (e *Engine) TicketTrace(id string) map[obs.Stage]time.Time {
	if !e.m.on() {
		return nil
	}
	return e.m.tracer.Stages(id)
}
