package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
)

// SyncPolicy selects when appended records are fsynced. See the package
// documentation for the trade-offs.
type SyncPolicy string

// Sync policies.
const (
	SyncAlways SyncPolicy = "always"
	SyncEpoch  SyncPolicy = "epoch"
	SyncOff    SyncPolicy = "off"
)

// ParseSyncPolicy validates a policy label (e.g. from a -fsync flag).
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch SyncPolicy(s) {
	case SyncAlways, SyncEpoch, SyncOff:
		return SyncPolicy(s), nil
	}
	return "", fmt.Errorf("wal: unknown fsync policy %q (want always, epoch or off)", s)
}

// Options configures a WAL.
type Options struct {
	// Dir holds the segment and snapshot files; created if absent.
	Dir string
	// Policy is the fsync policy (default SyncEpoch).
	Policy SyncPolicy
	// SegmentBytes rotates to a fresh segment once the current one exceeds
	// this size (default 4 MiB).
	SegmentBytes int64
	// Metrics, when non-nil, receives the WAL's telemetry: append/fsync
	// latency histograms, segment-count gauge, bytes-written and
	// recovery-truncation counters. Observability only — never affects
	// what is written or recovered.
	Metrics *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.Policy == "" {
		o.Policy = SyncEpoch
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	return o
}

// Log is an open, appendable WAL. It implements engine.Persister; attach it
// via engine.Config.Persister. Safe for concurrent use, though the engine's
// event log already serializes appends.
type Log struct {
	opt Options

	mu       sync.Mutex
	f        *os.File
	curName  string // name of the active append segment
	segBytes int64
	lastSeq  int
	err      error // sticky: first append/sync failure wedges the log

	// telemetry (nil-safe no-ops when Options.Metrics is unset)
	mAppend   *obs.Histogram
	mFsync    *obs.Histogram
	mSegments *obs.Gauge
	mBytes    *obs.Counter
	liveSegs  int // this log's contribution to wal_segments
}

// initMetrics registers the WAL families and adds this log's live segments
// to the segment gauge. The gauge moves by deltas, so the logs of a
// federation's shards, sharing one registry, sum into it.
func (w *Log) initMetrics(reg *obs.Registry, segments, truncations int) {
	if reg == nil {
		return
	}
	w.mAppend = reg.NewHistogram("wal_append_seconds",
		"Latency of framing and writing one record to the active segment.", obs.FastBuckets)
	w.mFsync = reg.NewHistogram("wal_fsync_seconds",
		"Latency of each fsync of the active segment.", obs.FastBuckets)
	w.mSegments = reg.NewGauge("wal_segments",
		"Live WAL segments on disk (including the active append segment).")
	w.mBytes = reg.NewCounter("wal_bytes_written_total",
		"Bytes appended to WAL segments since open.")
	reg.NewCounter("wal_recovery_truncations_total",
		"Torn tails truncated during recovery scans.").Add(float64(truncations))
	w.addSegments(segments)
}

// addSegments moves this log's live-segment count (and the gauge) by n.
func (w *Log) addSegments(n int) {
	w.liveSegs += n
	w.mSegments.Add(float64(n))
}

func segmentName(firstSeq int) string { return fmt.Sprintf("wal-%010d.seg", firstSeq) }

// syncDir fsyncs a directory so freshly created or renamed entries survive a
// power loss (file-content fsync alone does not make the directory entry
// durable on ext4/xfs).
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// segmentFiles lists the WAL segments in dir, sorted by name (== first seq,
// thanks to the zero padding).
func segmentFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var segs []string
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".seg") {
			segs = append(segs, name)
		}
	}
	sort.Strings(segs)
	return segs, nil
}

// Load reads every valid event from the WAL in dir: segments in order, each
// decoded up to its valid prefix. A torn or corrupt record ends the log —
// whatever was durably written before it is returned, never an error.
// A missing or empty directory yields an empty log.
func Load(dir string) ([]engine.Event, error) {
	segs, err := segmentFiles(dir)
	if err != nil {
		return nil, err
	}
	var events []engine.Event
	wantNext := 0
	for _, name := range segs {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("wal: read segment %s: %w", name, err)
		}
		evs, valid := DecodeAll(raw, wantNext)
		events = append(events, evs...)
		if valid < len(raw) {
			// Torn tail: the valid prefix ends here; later segments are
			// beyond it and cannot be contiguous.
			break
		}
		if len(evs) > 0 {
			wantNext = evs[len(evs)-1].Seq + 1
		}
	}
	return events, nil
}

// Open prepares the WAL in opts.Dir for appending: scans existing segments,
// truncates any torn tail off the last valid one, removes segments beyond
// the valid prefix, and positions the append cursor after the last durable
// record. The returned Log expects the next Persist to carry seq LastSeq()+1.
func Open(opts Options) (*Log, error) {
	w, _, err := openScan(opts)
	return w, err
}

// openScan is Open plus the decoded events — Boot uses it so recovery reads
// each segment exactly once.
func openScan(opts Options) (*Log, []engine.Event, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, err
	}
	segs, err := segmentFiles(opts.Dir)
	if err != nil {
		return nil, nil, err
	}

	w := &Log{opt: opts}
	var events []engine.Event
	appendTo := "" // segment to continue appending into
	var appendSize int64
	wantNext := 0
	liveSegs := len(segs)
	truncations := 0
	for i, name := range segs {
		path := filepath.Join(opts.Dir, name)
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: read segment %s: %w", name, err)
		}
		evs, valid := DecodeAll(raw, wantNext)
		events = append(events, evs...)
		if len(evs) > 0 {
			w.lastSeq = evs[len(evs)-1].Seq
			wantNext = w.lastSeq + 1
		}
		if valid < len(raw) {
			// Torn tail: truncate to the valid prefix and drop everything
			// beyond it.
			truncations++
			if err := os.Truncate(path, int64(valid)); err != nil {
				return nil, nil, fmt.Errorf("wal: truncate torn tail of %s: %w", name, err)
			}
			for _, later := range segs[i+1:] {
				if err := os.Remove(filepath.Join(opts.Dir, later)); err != nil {
					return nil, nil, fmt.Errorf("wal: drop segment %s beyond valid prefix: %w", later, err)
				}
			}
			appendTo, appendSize = name, int64(valid)
			liveSegs = i + 1
			break
		}
		appendTo, appendSize = name, int64(valid)
	}

	if appendTo == "" {
		appendTo = segmentName(w.lastSeq + 1)
		appendSize = 0
		liveSegs = 1
	}
	f, err := os.OpenFile(filepath.Join(opts.Dir, appendTo), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	if err := syncDir(opts.Dir); err != nil {
		f.Close()
		return nil, nil, err
	}
	w.f = f
	w.curName = appendTo
	w.segBytes = appendSize
	w.initMetrics(opts.Metrics, liveSegs, truncations)
	return w, events, nil
}

// archiveCoveredSegments renames every segment to <name>.covered[.N],
// taking it out of the WAL's sight while preserving it for forensics. Used
// when a snapshot supersedes records the log lost (fsync=off crash, wedged
// persister): the stale prefix would otherwise collide with seqs the
// checkpoint already covers. Archive names never overwrite an earlier
// archive from a previous cycle.
func archiveCoveredSegments(dir string) error {
	segs, err := segmentFiles(dir)
	if err != nil {
		return err
	}
	for _, name := range segs {
		path := filepath.Join(dir, name)
		dst := path + ".covered"
		for n := 1; ; n++ {
			if _, err := os.Stat(dst); os.IsNotExist(err) {
				break
			}
			dst = fmt.Sprintf("%s.covered.%d", path, n)
		}
		if err := os.Rename(path, dst); err != nil {
			return fmt.Errorf("wal: archive stale segment %s: %w", name, err)
		}
	}
	return nil
}

// LastSeq returns the seq of the last durably appended record.
func (w *Log) LastSeq() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lastSeq
}

// SkipTo advances the append cursor without writing: the records up to seq
// are covered by a snapshot and their segments were pruned. It only ever
// moves forward.
func (w *Log) SkipTo(seq int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if seq > w.lastSeq {
		w.lastSeq = seq
	}
}

// Persist implements engine.Persister: frame, append, and fsync per policy.
// Appends must arrive in seq order with no gaps; a violation (or any write
// error) wedges the log and every later Persist returns the same error.
func (w *Log) Persist(ev engine.Event) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if ev.Seq != w.lastSeq+1 {
		w.err = fmt.Errorf("wal: out-of-order append: seq %d after %d", ev.Seq, w.lastSeq)
		return w.err
	}
	var start time.Time
	if w.mAppend != nil {
		start = time.Now()
	}
	rec, err := encodeEvent(ev)
	if err != nil {
		w.err = err
		return err
	}
	if _, err := w.f.Write(rec); err != nil {
		w.err = err
		return err
	}
	if w.mAppend != nil {
		w.mAppend.Observe(time.Since(start).Seconds())
		w.mBytes.Add(float64(len(rec)))
	}
	w.segBytes += int64(len(rec))
	w.lastSeq = ev.Seq

	switch w.opt.Policy {
	case SyncAlways:
		err = w.timedSync()
	case SyncEpoch:
		if ev.Kind == engine.EventEpochEnd {
			err = w.timedSync()
		}
	}
	if err != nil {
		w.err = err
		return err
	}
	if w.segBytes >= w.opt.SegmentBytes {
		if err := w.rotate(); err != nil {
			w.err = err
			return err
		}
	}
	return nil
}

// timedSync fsyncs the active segment, feeding the fsync-latency histogram.
// Caller holds w.mu.
func (w *Log) timedSync() error {
	if w.mFsync == nil {
		return w.f.Sync()
	}
	start := time.Now()
	err := w.f.Sync()
	w.mFsync.Observe(time.Since(start).Seconds())
	return err
}

// rotate seals the current segment and opens the next. Caller holds w.mu.
func (w *Log) rotate() error {
	if err := w.f.Sync(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	name := segmentName(w.lastSeq + 1)
	f, err := os.OpenFile(filepath.Join(w.opt.Dir, name),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if err := syncDir(w.opt.Dir); err != nil {
		f.Close()
		return err
	}
	w.f = f
	w.curName = name
	w.segBytes = 0
	w.addSegments(1)
	return nil
}

// segmentFirstSeq parses the first-record seq a segment name encodes
// ("wal-%010d.seg"); 0 when the name is malformed.
func segmentFirstSeq(name string) int {
	s := strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg")
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0
	}
	return n
}

// PruneCovered removes sealed WAL segments made fully redundant by a
// snapshot at the given watermark seq: a segment is dropped when every
// record it holds has seq <= watermark (i.e. the next segment starts at or
// below watermark+1). The active append segment is never removed, so the
// log always stays appendable and the [watermark+1, head] suffix stays
// replayable. Returns how many segments were removed. Call it after
// WriteSnapshot succeeds; wal.Boot handles the resulting pruned prefix
// (recovery starts from the snapshot and replays only the surviving tail).
func (w *Log) PruneCovered(watermark int) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return 0, fmt.Errorf("wal: prune on closed log")
	}
	segs, err := segmentFiles(w.opt.Dir)
	if err != nil {
		return 0, err
	}
	removed := 0
	for i, name := range segs {
		if name == w.curName || i+1 >= len(segs) {
			break
		}
		if segmentFirstSeq(segs[i+1]) > watermark+1 {
			break // this segment holds records past the watermark
		}
		if err := os.Remove(filepath.Join(w.opt.Dir, name)); err != nil {
			if os.IsNotExist(err) {
				continue // a concurrent prune got there first; idempotent
			}
			return removed, fmt.Errorf("wal: prune segment %s: %w", name, err)
		}
		removed++
	}
	if removed > 0 {
		w.addSegments(-removed)
		if err := syncDir(w.opt.Dir); err != nil {
			return removed, err
		}
	}
	return removed, nil
}

// Sync forces an fsync of the current segment regardless of policy.
func (w *Log) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	return w.f.Sync()
}

// Close syncs and closes the current segment.
func (w *Log) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	syncErr := w.f.Sync()
	closeErr := w.f.Close()
	w.f = nil
	w.addSegments(-w.liveSegs)
	if w.err == nil {
		w.err = fmt.Errorf("wal: closed")
	}
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}
