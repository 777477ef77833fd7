package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dod"
	"repro/internal/engine"
	"repro/internal/market"
	"repro/internal/relation"
)

// outcome is a settlement (or failure) observed from outside the market.
type outcome struct {
	at   time.Time
	ok   bool
	sat  float64
	srcs int
	err  string
}

// rec is one timed submission.
type rec struct {
	key    string
	share  bool
	xshard bool
	paced  bool
	client int // saturate client, -1 in the paced stage
	due    time.Time
	late   time.Duration // call start minus due time
	done   time.Time
	state  int8 // 0 unsettled, 1 settled or applied, 2 failed
	sat    float64
	srcs   int
	err    string
	span   int // its loadgen.send span
}

const (
	stUnsettled int8 = iota
	stOK
	stFailed
)

// tracker joins submissions to the outcomes the observers report. An
// outcome can be seen before its submitter has registered the ticket (the
// epoch ran in between), so such outcomes wait in early.
type tracker struct {
	tr      *tracer
	mu      sync.Mutex
	recs    []*rec
	pending map[string]*rec
	early   map[string]outcome
	xpend   map[string]*rec // coordinator tickets not yet terminal
	sems    []chan struct{} // saturate windows, one per client
	open    int
	// shares counts dataset-shared events per (engine, engine epoch).
	shares map[[2]uint64]int
}

func newTracker(tr *tracer, clients, window int) *tracker {
	t := &tracker{tr: tr, pending: map[string]*rec{}, early: map[string]outcome{},
		xpend: map[string]*rec{}, shares: map[[2]uint64]int{}}
	for i := 0; i < clients; i++ {
		t.sems = append(t.sems, make(chan struct{}, window))
	}
	return t
}

func (t *tracker) register(r *rec) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.recs = append(t.recs, r)
	if r.state != stUnsettled {
		t.releaseLocked(r)
		return
	}
	if o, ok := t.early[r.key]; ok {
		delete(t.early, r.key)
		t.completeLocked(r, o)
		return
	}
	t.pending[r.key] = r
	t.open++
	if r.xshard {
		t.xpend[r.key] = r
	}
}

func (t *tracker) resolve(key string, o outcome) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if r, ok := t.pending[key]; ok {
		delete(t.pending, key)
		delete(t.xpend, key)
		t.open--
		t.completeLocked(r, o)
		return
	}
	t.early[key] = o
}

func (t *tracker) completeLocked(r *rec, o outcome) {
	r.done, r.sat, r.srcs, r.err = o.at, o.sat, o.srcs, o.err
	r.state = stFailed
	if o.ok {
		r.state = stOK
	}
	t.releaseLocked(r)
	t.tr.add("settle", r.key, r.span, o.at, o.at, r.err)
}

func (t *tracker) releaseLocked(r *rec) {
	if r.client >= 0 {
		<-t.sems[r.client]
	}
}

func (t *tracker) unsettled() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.open
}

// observe follows engine i's event log from seq `from` until it closes,
// resolving tickets by their settlement, share or rejection events.
func (t *tracker) observe(m *mkt, i int, from int) {
	log := m.engines[i].Log()
	cur := from
	for {
		evs, open := log.WaitAfter(cur)
		now := time.Now()
		for _, ev := range evs {
			cur = ev.Seq
			key := m.key(i, ev.Ticket)
			switch ev.Kind {
			case engine.EventTxSettled:
				t.resolve(key, outcome{at: now, ok: true, sat: ev.Satisfaction, srcs: len(ev.Datasets)})
			case engine.EventDatasetShared:
				t.mu.Lock()
				t.shares[[2]uint64{uint64(i), ev.Epoch}]++
				t.mu.Unlock()
				t.resolve(key, outcome{at: now, ok: true})
			case engine.EventRejected:
				if ev.Ticket != "" {
					t.resolve(key, outcome{at: now, err: ev.Err})
				}
			}
		}
		if !open {
			return
		}
	}
}

// pollCoord resolves coordinator tickets that reached a terminal state.
func (t *tracker) pollCoord(m *mkt) {
	t.mu.Lock()
	keys := make([]string, 0, len(t.xpend))
	for k := range t.xpend {
		keys = append(keys, k)
	}
	t.mu.Unlock()
	for _, k := range keys {
		t.checkCoord(m, k)
	}
}

func (t *tracker) checkCoord(m *mkt, key string) {
	tk, ok := m.ticket(key)
	if !ok || !tk.Status.Terminal() {
		return
	}
	t.resolve(key, outcome{at: time.Now(), ok: tk.Status == engine.TicketDone, err: tk.Err, srcs: 2})
}

// Epoch policy of dmgateway's defaults: an epoch every 250 ms, or as soon
// as 64 submissions are queued.
const (
	epochEvery     = 250 * time.Millisecond
	epochThreshold = 64
)

// trigger runs every epoch of the timed stages.
type trigger struct {
	m     *mkt
	t     *tracker
	since atomic.Int64
	kick  chan struct{}
	stop  chan struct{}
	done  chan struct{}
}

func startTrigger(m *mkt, t *tracker) *trigger {
	d := &trigger{m: m, t: t, kick: make(chan struct{}, 1), stop: make(chan struct{}), done: make(chan struct{})}
	go d.run()
	return d
}

func (d *trigger) run() {
	defer close(d.done)
	next := time.Now().Add(epochEvery)
	timer := time.NewTimer(epochEvery)
	defer timer.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-d.kick:
		case <-timer.C:
		}
		d.since.Store(0)
		d.m.epoch()
		if d.m.fed != nil {
			d.t.pollCoord(d.m)
		}
		now := time.Now()
		for !next.After(now) {
			next = next.Add(epochEvery)
		}
		timer.Reset(next.Sub(now))
	}
}

func (d *trigger) submitted() {
	if d.since.Add(1) >= epochThreshold {
		d.flush()
	}
}

// flush asks for an epoch now.
func (d *trigger) flush() {
	select {
	case d.kick <- struct{}{}:
	default:
	}
}

func (d *trigger) halt() {
	close(d.stop)
	<-d.done
}

// send submits one op due at `due` and registers it with the tracker.
func send(m *mkt, t *tracker, d *trigger, o op, due time.Time, client int) {
	start := time.Now()
	seq := m.tr.begin("loadgen.send", "", 0, due)
	tk, err := m.submit(o, seq)
	sent := time.Now()
	m.tr.update(seq, func(s *Span) { s.ID, s.End = tk, sent.Sub(m.tr.t0).Nanoseconds() })
	r := &rec{key: tk, share: o.share != nil, paced: client < 0, client: client,
		due: due, late: start.Sub(due), span: seq}
	if err != nil {
		r.state, r.err, r.done = stFailed, "submit: "+err.Error(), sent
		t.register(r)
		return
	}
	r.xshard = strings.HasPrefix(tk, "x:")
	t.register(r)
	if r.xshard {
		t.checkCoord(m, tk)
	}
	d.submitted()
}

// counters are the process-wide and market-wide counters a stage moves.
type counters struct {
	cache      dod.CacheStats
	alloc      market.AllocCounts
	rows, mats uint64
	mem        runtime.MemStats
	committed  uint64
	aborted    uint64
	matched    uint64
	shed       uint64
}

func readCounters(m *mkt) counters {
	var c counters
	for i, p := range m.plats {
		cs := p.DoDCacheStats()
		c.cache.Hits += cs.Hits
		c.cache.Stale += cs.Stale
		c.cache.Misses += cs.Misses
		c.cache.Builds += cs.Builds
		c.cache.BuildMillis += cs.BuildMillis
		c.cache.SubJoinHits += cs.SubJoinHits
		st := m.engines[i].StatsLite()
		c.matched += st.Matched
		c.shed += st.Shed
	}
	c.alloc = market.AllocCounters()
	c.rows, c.mats = relation.StreamCounters()
	runtime.ReadMemStats(&c.mem)
	if m.fed != nil {
		_, c.committed, c.aborted = m.fed.CoordStats()
	}
	return c
}

// pass is one run of a workload: set up, paced stage, saturate stage,
// drain, then checks and figures.
type pass struct {
	s       *spec
	seed    int64 // draws the pass's schedule and submissions; see passSeed
	tr      *tracer
	seconds float64
	setups  int
	dir     string

	setupS    []float64
	offered   int
	pacedAt   time.Time    // paced stage start
	sat       [2]time.Time // saturate stage start, end (all settled)
	satBudget int          // saturate-stage submissions
	drained   time.Time
	c0, c1    counters
	recs      []*rec
	m         *mkt
	t         *tracker
	heapMB    float64
	f         *figures // end-to-end figures, computed before the records are dropped
	gates     []string // failed correctness gates
	layers    map[string]float64
}

// Set-up repetition: see pass.run.
const (
	minSetups   = 5
	setupBudget = 2.0 // seconds
	maxSetups   = 31
)

// setup boots the market, registers participants, seeds and applies the
// catalog, and warms the candidate cache with one settled request per want
// group. It returns the market and how long all of that took.
func setup(s *spec, tr *tracer, dir string) (*mkt, float64, error) {
	start := time.Now()
	m, err := boot(s, tr, dir)
	if err != nil {
		return nil, 0, err
	}
	fail := func(err error) (*mkt, float64, error) {
		_ = m.stop()
		return nil, 0, err
	}
	var tickets []string
	for _, b := range s.buyers {
		tk, err := m.register(b, buyerFunds)
		if err != nil {
			return fail(fmt.Errorf("register %s: %w", b, err))
		}
		tickets = append(tickets, tk)
	}
	for i := range s.catalog {
		tk, err := m.submit(op{share: &s.catalog[i]}, 0)
		if err != nil {
			return fail(fmt.Errorf("share %s: %w", s.catalog[i].id, err))
		}
		tickets = append(tickets, tk)
	}
	m.epoch()
	for i, g := range s.groups {
		tk, err := m.submit(op{group: i, buyer: g.buyers[0]}, 0)
		if err != nil {
			return fail(fmt.Errorf("warm-up request: %w", err))
		}
		tickets = append(tickets, tk)
	}
	for tries := 0; ; tries++ {
		m.epoch()
		left := 0
		for _, id := range tickets {
			tk, ok := m.ticket(id)
			if !ok || tk.Status == engine.TicketFailed {
				return fail(fmt.Errorf("set-up submission %s failed: %s", id, tk.Err))
			}
			if tk.Status != engine.TicketDone {
				left++
			}
		}
		if left == 0 {
			break
		}
		if tries == 20 {
			return fail(fmt.Errorf("%d set-up submissions still open after %d epochs", left, tries))
		}
	}
	return m, time.Since(start).Seconds(), nil
}

// run executes the pass. A returned error means the run could not be
// measured; failed gates are collected in p.gates instead.
func (p *pass) run() error {
	s := p.s
	// Set up at least p.setups times and, when that is more than one, more
	// while they take under setupBudget in all, so a set-up of a few
	// milliseconds is still the median of many. The last market set up is
	// the one measured.
	var total float64
	for k := 0; ; k++ {
		dir := filepath.Join(p.dir, fmt.Sprintf("setup-%d", k))
		runtime.GC()
		m, secs, err := setup(s, p.tr, dir)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		p.setupS = append(p.setupS, secs)
		total += secs
		if k+1 >= p.setups && (p.setups == 1 || total >= setupBudget || k+1 >= maxSetups) {
			p.m = m
			break
		}
		if err := m.stop(); err != nil {
			return err
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	m := p.m
	t := newTracker(p.tr, 2, s.window)
	p.t = t
	var obsWG sync.WaitGroup
	for i, e := range m.engines {
		obsWG.Add(1)
		go func(i, from int) {
			defer obsWG.Done()
			t.observe(m, i, from)
		}(i, e.Log().LastSeq())
	}
	stopped := false
	stopMarket := func() error {
		if stopped {
			return nil
		}
		stopped = true
		err := m.stop()
		obsWG.Wait()
		return err
	}
	defer stopMarket()

	p.c0 = readCounters(m)
	d := startTrigger(m, t)
	pacedDur := time.Duration(p.seconds * s.pacedShare * float64(time.Second))
	satDur := time.Duration(p.seconds*float64(time.Second)) - pacedDur
	p.runPaced(d, pacedDur)
	// The saturate stage starts from an empty pipeline.
	drain(t)
	p.runSaturate(d, satDur)
	d.halt()
	p.drained = time.Now()
	p.c1 = readCounters(m)

	t.mu.Lock()
	p.recs = t.recs
	t.mu.Unlock()
	p.f = p.fig()
	p.check()
	if p.tr != nil {
		p.layers = p.layerMetrics()
	}

	// Live heap of the market before Stop. Both stages' work is fixed, so
	// this measures what the market keeps, not how fast it ran. The
	// benchmark's own records are summarized by now and dropped first.
	t.mu.Lock()
	t.recs, t.pending, t.early = nil, map[string]*rec{}, map[string]outcome{}
	t.mu.Unlock()
	p.recs = nil
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.heapMB = float64(ms.HeapAlloc) / (1 << 20)

	if err := stopMarket(); err != nil {
		return fmt.Errorf("stop: %w", err)
	}
	p.checkMarket()
	// The next pass must not carry this market's heap.
	p.m, p.t = nil, nil
	return nil
}

// drain keeps epochs running (the trigger is still on) until every
// submission is resolved, or 30 s pass; what is left counts as unsettled.
func drain(t *tracker) {
	deadline := time.Now().Add(30 * time.Second)
	for t.unsettled() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
}

func (p *pass) runPaced(d *trigger, dur time.Duration) {
	s := p.s
	rng := newRand(p.seed, 1)
	offs := poisson(rng, s.rate, int(s.rate*dur.Seconds()*1.5)+16)
	n := 0
	for n < len(offs) && offs[n] < dur.Seconds() {
		n++
	}
	gen := s.ops(mix(p.seed, 2), 0, 2)
	ops := make([]op, n)
	for i := range ops {
		ops[i] = gen.next()
	}
	p.offered = n
	start := time.Now().Add(2 * time.Millisecond)
	p.pacedAt = start
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				due := start.Add(time.Duration(offs[i] * float64(time.Second)))
				if w := time.Until(due); w > 0 {
					time.Sleep(w)
				}
				send(p.m, p.t, d, ops[i], due, -1)
			}
		}()
	}
	wg.Wait()
	if end := start.Add(dur); time.Now().Before(end) {
		time.Sleep(time.Until(end))
	}
}

// runSaturate runs the closed loop: each client keeps up to window
// submissions unsettled. The stage's work is fixed, satRef submissions per
// planned second, so a faster market finishes sooner instead of growing
// its catalog further; it gives up at twice its planned time.
func (p *pass) runSaturate(d *trigger, dur time.Duration) {
	s := p.s
	budget := int(s.satRef * dur.Seconds())
	p.satBudget = budget
	p.sat[0] = time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 2*dur)
	defer cancel()
	// Both clients draw from one sequence, so shares land every shareGap
	// submissions of the stage, whichever client sends them.
	gen := s.ops(mix(p.seed, 3), 1, 2)
	var genMu sync.Mutex
	sent := 0
	next := func() (op, bool) {
		genMu.Lock()
		defer genMu.Unlock()
		if sent == budget {
			return op{}, false
		}
		sent++
		return gen.next(), true
	}
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				select {
				case p.t.sems[c] <- struct{}{}:
				case <-ctx.Done():
					return
				}
				o, ok := next()
				if !ok || ctx.Err() != nil {
					<-p.t.sems[c]
					return
				}
				send(p.m, p.t, d, o, time.Now(), c)
			}
		}(c)
	}
	wg.Wait()
	// The stage's work is all sent: settle the last, partial batch now, not
	// at the next tick, which would add up to 250 ms of timer phase to the
	// stage's time.
	d.flush()
	drain(p.t)
	p.sat[1] = time.Now()
}
