// Package federation shards the market itself: N independent arbiter shards
// — each a full platform + engine + WAL lineage — run their epochs in
// parallel behind a router, and a coordinator clears the mashups no single
// shard can. See doc.go for the architecture.
package federation

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/dod"
	"repro/internal/engine"
	"repro/internal/ledger"
	"repro/internal/license"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/wal"
	"repro/internal/wtp"
)

// Config configures a federated market.
type Config struct {
	// Shards is the number of arbiter shards (<= 1 means a single shard —
	// still a federation, but every participant homes to shard 0 and the
	// coordinator never sees a want).
	Shards int
	// Dir, when non-empty, makes the federation durable: each shard gets an
	// independent WAL + snapshot lineage under <Dir>/shard-<i>, and the
	// coordinator log lives at <Dir>/coord.log. A one-shard market keeps its
	// lineage directly in Dir — the single-arbiter layout, so a WAL
	// directory written by a bare wal.Boot engine boots as is. Empty = fully
	// in-memory.
	Dir string
	// Sync is the per-shard WAL fsync policy (default wal.SyncEpoch).
	Sync wal.SyncPolicy
	// SegmentBytes is the per-shard WAL segment size (0 = wal default).
	SegmentBytes int64
	// Engine is the per-shard engine template. Metrics, ShardLabel and
	// Persister are managed by the federation; everything else applies to
	// each shard verbatim (so EpochEvery > 0 gives every shard — and the
	// coordinator — a periodic epoch).
	Engine engine.Config
	// Platform is the per-shard market design. Every shard must share one
	// design: the coordinator prices cross-shard mashups on a catalog
	// mirror built from these same options.
	Platform core.Options
	// Metrics, when non-nil, receives the market's telemetry: engine and
	// WAL families summed over the shards under their single-engine names,
	// plus — with more than one shard — per-shard views under a `shard`
	// label (engine.Config.ShardLabel) and the coordinator's families.
	Metrics *obs.Registry

	// testCrash, when non-nil, is the crash-injection hook for the 2PC kill
	// matrix (in-package tests only): it fires at every named commit
	// boundary, including the ones inside recovery, and a non-nil return
	// abandons the attempt exactly where a process death would.
	testCrash func(point string) error
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	return c
}

// Shard is one arbiter shard: a full platform + engine, plus its WAL when
// the federation is durable.
type Shard struct {
	Index    int
	Platform *core.Platform
	Engine   *engine.Engine
	WAL      *wal.Log       // nil when in-memory
	Dir      string         // "" when in-memory
	Boot     wal.BootResult // what recovery found in Dir (zero when in-memory)
}

// ErrNoSnapshotLineage is SnapshotAll's refusal on a market without a WAL
// directory.
var ErrNoSnapshotLineage = errors.New("federation: in-memory market has no snapshot lineage")

// ErrDatasetIDTaken is SubmitShare's refusal of a dataset ID another shard
// already holds or has reserved: dataset IDs are unique across the whole
// market, as on a single arbiter.
var ErrDatasetIDTaken = errors.New("federation: dataset ID taken by another shard")

// Checkpoint is one shard snapshot written by SnapshotAll: its path and the
// last event seq it covers.
type Checkpoint struct {
	Path string
	Seq  int
}

// Market is the federation: the routing surface in front of the shards and
// the cross-shard coordinator behind them. Its submit/ticket/stats surface
// mirrors *engine.Engine so callers (the gateway, benchmarks) can swap one
// for the other. A one-shard market is the single-arbiter market: IDs stay
// shard-local ("sub-000001", not "s0:sub-000001") and every engine and WAL
// family keeps its unlabeled name.
type Market struct {
	cfg    Config
	shards []*Shard
	router *router
	coord  *coordinator

	// coordMu is the coordinator mutex: settle rounds, recovery and
	// SnapshotAll serialize on it, so a snapshot can never observe a shard
	// mid-2PC.
	coordMu sync.Mutex

	stop    chan struct{}
	loopWG  sync.WaitGroup
	started atomic.Bool
}

// Open boots a federated market: every shard recovers from its own WAL
// (durable mode), the coordinator resolves in-doubt cross-shard
// transactions from the logs, and the router is seeded from the recovered
// catalogs. Engines are not started; call Start.
func Open(cfg Config) (*Market, error) {
	cfg = cfg.withDefaults()
	m := &Market{cfg: cfg, router: newRouter(cfg.Shards), stop: make(chan struct{})}

	var coordRecs []coordRecord
	var clog *coordLog
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, err
		}
		var err error
		clog, coordRecs, err = openCoordLog(cfg.Dir)
		if err != nil {
			return nil, err
		}
	}

	for i := 0; i < cfg.Shards; i++ {
		ecfg := cfg.Engine
		ecfg.Metrics = cfg.Metrics
		ecfg.ShardLabel = ""
		ecfg.Persister = nil
		sh := &Shard{Index: i, Dir: cfg.Dir}
		if cfg.Shards > 1 {
			ecfg.ShardLabel = strconv.Itoa(i)
			if cfg.Dir != "" {
				sh.Dir = filepath.Join(cfg.Dir, fmt.Sprintf("shard-%d", i))
			}
		}
		if sh.Dir != "" {
			p, e, w, res, err := wal.Boot(cfg.Platform, ecfg, wal.Options{
				Dir: sh.Dir, Policy: cfg.Sync, SegmentBytes: cfg.SegmentBytes, Metrics: cfg.Metrics})
			if err != nil {
				m.closeShards()
				return nil, fmt.Errorf("federation: boot shard %d: %w", i, err)
			}
			sh.Platform, sh.Engine, sh.WAL, sh.Boot = p, e, w, res
		} else {
			p, err := core.NewPlatform(cfg.Platform)
			if err != nil {
				return nil, err
			}
			sh.Platform, sh.Engine = p, engine.New(p, ecfg)
		}
		m.shards = append(m.shards, sh)
	}

	// Coordinator recovery runs after every shard has replayed its WAL (so
	// shard-side escrow state is current) and before engines start.
	m.coord = newCoordinator(m, clog)
	m.coord.crash = cfg.testCrash
	m.coordMu.Lock()
	err := m.coord.recover(coordRecs)
	m.coordMu.Unlock()
	if err != nil {
		m.closeShards()
		return nil, err
	}

	for _, sh := range m.shards {
		m.router.seedFromShard(sh.Index, sh.Platform.DatasetStates())
	}
	m.registerMetrics(cfg.Metrics)
	return m, nil
}

// Wrap serves a caller-built platform and engine as a one-shard market. The
// caller keeps the engine's lifecycle (Start/Stop) and its persister; the
// market has no snapshot lineage and registers no telemetry of its own.
func Wrap(p *core.Platform, eng *engine.Engine) *Market {
	m := &Market{cfg: Config{Shards: 1}, router: newRouter(1), stop: make(chan struct{})}
	m.shards = []*Shard{{Index: 0, Platform: p, Engine: eng}}
	m.coord = newCoordinator(m, nil)
	return m
}

func (m *Market) closeShards() {
	for _, sh := range m.shards {
		if sh.WAL != nil {
			_ = sh.WAL.Close()
		}
	}
	_ = m.coordLogClose()
}

func (m *Market) coordLogClose() error {
	if m.coord == nil {
		return nil
	}
	return m.coord.log.close()
}

// Start launches every shard's epoch machinery, plus the coordinator's own
// periodic round when the engine template has one.
func (m *Market) Start() {
	if !m.started.CompareAndSwap(false, true) {
		return
	}
	for _, sh := range m.shards {
		sh.Engine.Start()
	}
	if every := m.cfg.Engine.EpochEvery; every > 0 {
		m.loopWG.Add(1)
		go func() {
			defer m.loopWG.Done()
			t := time.NewTicker(every)
			defer t.Stop()
			for {
				select {
				case <-m.stop:
					return
				case <-t.C:
					m.CoordRound()
				}
			}
		}()
	}
}

// Stop shuts the federation down: coordinator loop first, then every shard
// engine in parallel (each runs its final flush epoch), then the logs.
func (m *Market) Stop() {
	select {
	case <-m.stop:
	default:
		close(m.stop)
	}
	m.loopWG.Wait()
	var wg sync.WaitGroup
	for _, sh := range m.shards {
		wg.Add(1)
		go func(sh *Shard) {
			defer wg.Done()
			sh.Engine.Stop()
		}(sh)
	}
	wg.Wait()
	m.closeShards()
}

// Shards returns the shard handles (read-only use: tests, the gateway's
// per-shard event/settlement views).
func (m *Market) Shards() []*Shard { return m.shards }

// NumShards returns the shard count.
func (m *Market) NumShards() int { return len(m.shards) }

// --- routing surface ------------------------------------------------------

// ShardID is the federation form of a shard-local ticket or transaction ID:
// the bare ID on a one-shard market, "s<i>:<id>" otherwise.
func (m *Market) ShardID(shard int, id string) string {
	if len(m.shards) == 1 {
		return id
	}
	return shardTicket(shard, id)
}

// route resolves a federation ID (see ShardID) to its shard and local form.
// Coordinator tickets ("x:...") route nowhere.
func (m *Market) route(id string) (shard int, local string, ok bool) {
	if strings.HasPrefix(id, "x:") {
		return 0, "", false
	}
	if len(m.shards) == 1 {
		return 0, id, true
	}
	s, local, ok := splitShardID(id)
	if !ok || s >= len(m.shards) {
		return 0, "", false
	}
	return s, local, true
}

// SubmitRegister files a participant registration with its home shard.
func (m *Market) SubmitRegister(name string, funds float64) (string, error) {
	s := HomeOf(name, len(m.shards))
	tk, err := m.shards[s].Engine.SubmitRegister(name, funds)
	if err != nil {
		return "", err
	}
	return m.ShardID(s, tk), nil
}

// SubmitShare files a dataset share with the seller's home shard and
// optimistically indexes its columns for routing (the share applies at the
// shard's next epoch; until then wants for those columns simply wait). An
// ID another shard holds or has reserved is refused with ErrDatasetIDTaken
// before anything is filed; see router.reserveID for how long a
// reservation lasts.
func (m *Market) SubmitShare(seller string, id catalog.DatasetID, rel *relation.Relation,
	meta wtp.DatasetMeta, terms license.Terms) (string, error) {
	s := HomeOf(seller, len(m.shards))
	if err := m.router.reserveID(id, s); err != nil {
		return "", err
	}
	tk, err := m.shards[s].Engine.SubmitShare(seller, id, rel, meta, terms)
	if err != nil {
		return "", err
	}
	m.router.addRelation(s, rel)
	return m.ShardID(s, tk), nil
}

// SubmitRequest routes a buyer's want: to the home shard when its columns
// resolve there, to the cross-shard coordinator when they span shards.
func (m *Market) SubmitRequest(want dod.Want, f *wtp.Function) (string, error) {
	return m.SubmitRequestPriority(want, f, engine.PriorityNormal)
}

// SubmitRequestPriority is SubmitRequest with an explicit priority class.
func (m *Market) SubmitRequestPriority(want dod.Want, f *wtp.Function, priority int) (string, error) {
	home := HomeOf(f.Buyer, len(m.shards))
	if m.router.spans(want, home) {
		return m.coord.enqueue(want, f, priority)
	}
	tk, err := m.shards[home].Engine.SubmitRequestPriority(want, f, priority)
	if err != nil {
		return "", err
	}
	return m.ShardID(home, tk), nil
}

// SubmitReport files an ex-post value report for a shard-local transaction.
// Cross-shard transactions settle up-front at the delivered price (the
// escrowed 2PC pays out immediately), so "xtx-" IDs take no reports.
func (m *Market) SubmitReport(txID string, reported, trueValue float64) (string, error) {
	if strings.HasPrefix(txID, "xtx-") {
		return "", fmt.Errorf("federation: cross-shard transaction %s settled up-front; no ex-post report", txID)
	}
	s, local, ok := m.route(txID)
	if !ok {
		return "", fmt.Errorf("federation: unknown transaction %q", txID)
	}
	tk, err := m.shards[s].Engine.SubmitReport(local, reported, trueValue)
	if err != nil {
		return "", err
	}
	return m.ShardID(s, tk), nil
}

// Ticket resolves a federation ticket: coordinator tickets ("x:...") from
// the coordinator, shard tickets from their shard with IDs rewritten back to
// federation form.
func (m *Market) Ticket(id string) (engine.Ticket, bool) {
	if strings.HasPrefix(id, "x:") {
		return m.coord.ticket(id)
	}
	s, local, ok := m.route(id)
	if !ok {
		return engine.Ticket{}, false
	}
	t, ok := m.shards[s].Engine.Ticket(local)
	if !ok {
		return engine.Ticket{}, false
	}
	t.ID = m.ShardID(s, t.ID)
	if t.TxID != "" {
		t.TxID = m.ShardID(s, t.TxID)
	}
	return t, true
}

// TicketTrace returns the stamped pipeline stages of a shard ticket's span,
// from the shard that owns it (nil for coordinator tickets, with telemetry
// off, or once the span is evicted).
func (m *Market) TicketTrace(id string) map[obs.Stage]time.Time {
	s, local, ok := m.route(id)
	if !ok {
		return nil
	}
	return m.shards[s].Engine.TicketTrace(local)
}

// Balance returns a participant's ledger balance on its home shard.
func (m *Market) Balance(name string) (ledger.Currency, bool) {
	l := m.shards[HomeOf(name, len(m.shards))].Platform.Arbiter.Ledger
	if !l.Exists(name) {
		return 0, false
	}
	return l.Balance(name), true
}

// TotalSupply sums every shard ledger's total supply — the federation-wide
// conservation quantity: escrow-style 2PC moves value between shards but
// never changes this sum outside registrations.
func (m *Market) TotalSupply() ledger.Currency {
	var total ledger.Currency
	for _, sh := range m.shards {
		total += sh.Platform.Arbiter.Ledger.TotalSupply()
	}
	return total
}

// --- epochs ---------------------------------------------------------------

// TriggerEpoch runs one epoch on every shard concurrently, then one
// coordinator round. Returns the max shard epoch and whether any shard
// counted an epoch or the coordinator settled a want.
func (m *Market) TriggerEpoch() (uint64, bool) {
	var wg sync.WaitGroup
	var counted atomic.Bool
	var maxEpoch atomic.Uint64
	for _, sh := range m.shards {
		wg.Add(1)
		go func(sh *Shard) {
			defer wg.Done()
			ep, ok := sh.Engine.TriggerEpoch()
			if ok {
				counted.Store(true)
			}
			for {
				cur := maxEpoch.Load()
				if ep <= cur || maxEpoch.CompareAndSwap(cur, ep) {
					return
				}
			}
		}(sh)
	}
	wg.Wait()
	if m.CoordRound() > 0 {
		counted.Store(true)
	}
	return maxEpoch.Load(), counted.Load()
}

// CoordRound runs one coordinator round (all pending cross-shard wants get
// one settle attempt) under the coordinator mutex. Returns settles.
func (m *Market) CoordRound() int {
	m.coordMu.Lock()
	defer m.coordMu.Unlock()
	return m.coord.round()
}

// --- aggregate views ------------------------------------------------------

// Stats merges every shard's engine stats into one market-wide view:
// throughput counters sum; process-wide gauges (allocator counters, policy,
// worker config) come from shard 0; cross-shard settles count as matches.
// Each shard is read once.
func (m *Market) Stats() engine.Stats {
	per := m.ShardStats()
	agg := per[0]
	if len(per) > 1 && agg.PersistErr != "" {
		agg.PersistErr = "shard 0: " + agg.PersistErr
	}
	for i, s := range per[1:] {
		agg.Epochs += s.Epochs
		agg.Submitted += s.Submitted
		agg.Applied += s.Applied
		agg.Matched += s.Matched
		agg.Failed += s.Failed
		agg.OpenRequests += s.OpenRequests
		agg.Pending += s.Pending
		agg.Events += s.Events
		agg.Rejected += s.Rejected
		agg.Shed += s.Shed
		agg.Aged += s.Aged
		agg.BuildMillis += s.BuildMillis
		agg.CacheHits += s.CacheHits
		agg.CacheStale += s.CacheStale
		agg.CacheRestamped += s.CacheRestamped
		agg.SubJoinHits += s.SubJoinHits
		agg.BuildDeadlineExceeded += s.BuildDeadlineExceeded
		agg.BuildsCancelled += s.BuildsCancelled
		agg.PriceMillis += s.PriceMillis
		agg.MatchesPerSec += s.MatchesPerSec
		agg.LastPersisted += s.LastPersisted
		agg.Uptime = max(agg.Uptime, s.Uptime)
		if s.PersistErr != "" && agg.PersistErr == "" {
			agg.PersistErr = fmt.Sprintf("shard %d: %s", i+1, s.PersistErr)
		}
	}
	settled, _ := m.coord.counters()
	agg.Matched += settled
	agg.OpenRequests += m.coord.pendingCount()
	if agg.Uptime > 0 {
		agg.MatchesPerSec += float64(settled) / agg.Uptime.Seconds()
	}
	return agg
}

// ShardStats returns each shard's own engine stats, index-aligned — the
// per-shard detail behind the aggregate /engine/stats view.
func (m *Market) ShardStats() []engine.Stats {
	out := make([]engine.Stats, len(m.shards))
	for i, sh := range m.shards {
		out[i] = sh.Engine.Stats()
	}
	return out
}

// CoordStats reports the coordinator's own counters.
func (m *Market) CoordStats() (pending int, settled, aborted uint64) {
	settled, aborted = m.coord.counters()
	return m.coord.pendingCount(), settled, aborted
}

// --- snapshots ------------------------------------------------------------

// SnapshotAll snapshots every shard and prunes its WAL behind the newest two
// checkpoints (the older one is the corruption fallback), all under the
// coordinator mutex — no shard can be mid-2PC in the resulting snapshot
// set, so the per-shard snapshots are mutually consistent with the
// coordinator log. Returns one checkpoint per shard, index-aligned.
func (m *Market) SnapshotAll() ([]Checkpoint, error) {
	if m.cfg.Dir == "" {
		return nil, ErrNoSnapshotLineage
	}
	m.coordMu.Lock()
	defer m.coordMu.Unlock()
	out := make([]Checkpoint, 0, len(m.shards))
	for _, sh := range m.shards {
		snap, err := sh.Engine.Snapshot()
		if err != nil {
			return out, fmt.Errorf("federation: snapshot shard %d: %w", sh.Index, err)
		}
		p, err := wal.WriteSnapshot(sh.Dir, snap)
		if err != nil {
			return out, err
		}
		if _, _, err := wal.PruneAfterSnapshot(sh.Dir, sh.WAL); err != nil {
			return out, err
		}
		out = append(out, Checkpoint{Path: p, Seq: snap.TakenAtSeq})
	}
	return out, nil
}

// registerMetrics registers the sampled engine families once, summed over
// every shard plus the coordinator's settles and queue, and the
// federation's own families.
func (m *Market) registerMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	engs := make([]*engine.Engine, len(m.shards))
	for i, sh := range m.shards {
		engs[i] = sh.Engine
	}
	engine.RegisterSampledMetrics(reg, engs, func() (uint64, int) {
		settled, _ := m.coord.counters()
		return settled, m.coord.pendingCount()
	})
	reg.NewGaugeFunc("federation_shards", "Arbiter shards in this market.",
		func() float64 { return float64(len(m.shards)) })
	reg.NewGaugeFunc("federation_coordinator_pending_wants", "Cross-shard wants awaiting settlement.",
		func() float64 { return float64(m.coord.pendingCount()) })
	reg.NewCounterFunc("federation_xtx_committed_total", "Cross-shard transactions committed.",
		func() float64 { s, _ := m.coord.counters(); return float64(s) })
	reg.NewCounterFunc("federation_xtx_aborted_total", "Cross-shard attempts aborted.",
		func() float64 { _, a := m.coord.counters(); return float64(a) })
	if len(m.shards) > 1 {
		reg.NewCounterFunc("federation_coord_mirror_builds_total",
			"Coordinator catalog mirror builds (one per observed catalog change, not per want).",
			func() float64 { return float64(m.coord.mirrorBuildCount()) })
	}
}
