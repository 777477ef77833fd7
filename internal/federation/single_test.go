package federation

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/license"
	"repro/internal/obs"
	"repro/internal/wal"
	"repro/internal/wtp"
)

// TestSingleEngineWALBootsAsOneShardMarket is the upgrade path: a WAL
// directory written by a bare wal.Boot engine — a snapshot mid-run plus a
// WAL tail — boots through a one-shard market with every event, its shard
// fingerprint byte-identical, and the tickets handed out in the first life
// still resolving under their bare IDs.
func TestSingleEngineWALBootsAsOneShardMarket(t *testing.T) {
	dir := t.TempDir()
	opts := core.Options{Design: testDesign}
	ecfg := engine.Config{Shards: 4}
	walOpts := wal.Options{Dir: dir, Policy: wal.SyncAlways}

	p, e, w, _, err := wal.Boot(opts, ecfg, walOpts)
	if err != nil {
		t.Fatal(err)
	}
	mustTk(e.SubmitRegister("b1", 5000))
	mustTk(e.SubmitShare("s1", catalog.DatasetID("s1/d0"), flatRel("s1/d0", 20),
		wtp.DatasetMeta{Dataset: "s1/d0", HasProvenance: true}, license.Terms{Kind: license.Open}))
	e.TriggerEpoch()
	want, f := coverWant("b1", 150, "a", "b")
	req1 := mustTk(e.SubmitRequest(want, f))
	e.TriggerEpoch()
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wal.WriteSnapshot(dir, snap); err != nil {
		t.Fatal(err)
	}
	mustTk(e.SubmitRegister("b2", 3000))
	want, f = coverWant("b2", 120, "a", "b")
	req2 := mustTk(e.SubmitRequest(want, f))
	e.TriggerEpoch()
	e.Stop()
	tk1, _ := e.Ticket(req1)
	tk2, _ := e.Ticket(req2)
	if tk1.Status != engine.TicketDone || tk2.Status != engine.TicketDone {
		t.Fatalf("bare engine did not settle: %+v %+v", tk1, tk2)
	}
	events := e.Log().LastSeq()
	before := shardFingerprint(t, &Shard{Platform: p, Engine: e})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	m, err := Open(Config{Shards: 1, Dir: dir, Sync: wal.SyncAlways, Engine: ecfg, Platform: opts})
	if err != nil {
		t.Fatalf("one-shard market over a single-engine WAL dir: %v", err)
	}
	sh := m.Shards()[0]
	if sh.Dir != dir {
		t.Fatalf("shard 0 lineage in %q, want the market directory %q", sh.Dir, dir)
	}
	if got := sh.Engine.Log().LastSeq(); got != events {
		t.Fatalf("booted %d events, want %d", got, events)
	}
	if sh.Boot.FromSnapshotSeq != snap.TakenAtSeq || sh.Boot.Replayed != events-snap.TakenAtSeq {
		t.Fatalf("boot result %+v, want snapshot seq %d and %d replayed",
			sh.Boot, snap.TakenAtSeq, events-snap.TakenAtSeq)
	}
	for _, prev := range []engine.Ticket{tk1, tk2} {
		got, ok := m.Ticket(prev.ID)
		if !ok || got.Status != prev.Status || got.TxID != prev.TxID {
			t.Fatalf("ticket %s after upgrade = %+v (ok=%v), want %+v", prev.ID, got, ok, prev)
		}
	}
	m.Stop()
	if after := shardFingerprint(t, sh); string(after) != string(before) {
		t.Fatalf("one-shard boot diverged from the bare engine:\n--- bare\n%s\n--- market\n%s", before, after)
	}
	if _, err := os.Stat(filepath.Join(dir, "coord.log")); err != nil {
		t.Fatalf("coordinator log not beside the shard lineage: %v", err)
	}
}

// TestSnapshotAllWithoutLineage: an in-memory market refuses SnapshotAll
// with the typed sentinel the HTTP layer maps to 503.
func TestSnapshotAllWithoutLineage(t *testing.T) {
	for _, shards := range []int{1, 2} {
		m, err := Open(Config{Shards: shards, Platform: core.Options{Design: testDesign}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.SnapshotAll(); !errors.Is(err, ErrNoSnapshotLineage) {
			t.Fatalf("shards=%d: SnapshotAll = %v, want ErrNoSnapshotLineage", shards, err)
		}
		m.Stop()
	}
}

// TestTicketTraceRoutesToShard: a shard ticket's trace comes from the shard
// that owns it, on one shard (bare IDs) and on two (prefixed IDs).
func TestTicketTraceRoutesToShard(t *testing.T) {
	for _, shards := range []int{1, 2} {
		m, err := Open(Config{Shards: shards, Platform: core.Options{Design: testDesign},
			Metrics: obs.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		b := nameOn(t, "b", shards-1, shards)
		s := nameOn(t, "s", shards-1, shards)
		mustTk(m.SubmitRegister(b, 4000))
		openShare(t, m, s, s+"/d0", flatRel(s+"/d0", 20))
		m.TriggerEpoch()
		want, f := coverWant(b, 150, "a", "b")
		tk := mustTk(m.SubmitRequest(want, f))
		m.TriggerEpoch()
		if strings.Contains(tk, ":") != (shards > 1) {
			t.Fatalf("shards=%d: ticket %q has the wrong ID form", shards, tk)
		}
		trace := m.TicketTrace(tk)
		if _, ok := trace[obs.StageSettle]; !ok {
			t.Fatalf("shards=%d: trace of %s = %v, want a settle stamp", shards, tk, trace)
		}
		if m.TicketTrace("x:000001") != nil || m.TicketTrace("s9:sub-000001") != nil {
			t.Fatalf("shards=%d: unroutable tickets must have no trace", shards)
		}
		m.Stop()
	}
}
