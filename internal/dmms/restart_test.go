package dmms

import (
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/federation"
	"repro/internal/wal"
)

// TestAsyncSurfaceSurvivesRestart covers the client-visible durability
// contract: a client holding a ticket and an /events cursor from before a
// gateway restart must resume polling against the rebooted server without
// gaps or duplicates, and its old ticket must still resolve to the same
// terminal state.
func TestAsyncSurfaceSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	walOpts := wal.Options{Dir: dir, Policy: wal.SyncAlways}

	// --- first server lifetime -------------------------------------------
	w, err := wal.Open(walOpts)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewPlatform(core.Options{Design: "posted-baseline"})
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(p, engine.Config{Shards: 4, Persister: w})
	srv := httptest.NewServer(NewEngineServer(p, eng))
	c := NewClient(srv.URL)

	regT, err := c.RegisterAsync("b1", 2000)
	if err != nil {
		t.Fatal(err)
	}
	shareT, err := c.ShareDatasetAsync("s1", "s1/d1", asyncRelation("s1/d1", 30), "open")
	if err != nil {
		t.Fatal(err)
	}
	if _, ran, err := c.TriggerEpoch(); err != nil || !ran {
		t.Fatalf("first epoch: ran=%v err=%v", ran, err)
	}
	reqT, err := c.SubmitRequestAsync(RequestReq{
		Buyer:   "b1",
		Columns: []string{"x", "y"},
		Curve:   []CurvePointSpec{{MinSatisfaction: 0.5, Price: 150}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ran, err := c.TriggerEpoch(); err != nil || !ran {
		t.Fatalf("second epoch: ran=%v err=%v", ran, err)
	}
	reqTk, err := c.WaitTicket(reqT, time.Second)
	if err != nil || reqTk.Status != engine.TicketDone {
		t.Fatalf("request did not settle before restart: %+v err=%v", reqTk, err)
	}

	// The client consumes part of the stream and remembers its cursor.
	pre, err := c.Events(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pre) < 4 {
		t.Fatalf("want a few events before restart, got %d", len(pre))
	}
	cursor := pre[len(pre)/2].Seq
	seen := map[int]bool{}
	for _, ev := range pre[:len(pre)/2+1] {
		seen[ev.Seq] = true
	}
	total := pre[len(pre)-1].Seq

	// --- restart ----------------------------------------------------------
	srv.Close()
	eng.Stop()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	p2, eng2, w2, res, err := wal.Boot(core.Options{Design: "posted-baseline"},
		engine.Config{Shards: 4}, walOpts)
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	defer func() {
		eng2.Stop()
		w2.Close()
	}()
	if res.Recovered != total {
		t.Fatalf("recovered %d events, want %d", res.Recovered, total)
	}
	srv2 := httptest.NewServer(NewEngineServer(p2, eng2))
	defer srv2.Close()
	c2 := NewClient(srv2.URL)

	// Resume the event stream from the pre-restart cursor: contiguous,
	// no gaps, no duplicates.
	post, err := c2.Events(cursor)
	if err != nil {
		t.Fatal(err)
	}
	for i, ev := range post {
		if ev.Seq != cursor+i+1 {
			t.Fatalf("resumed stream has a gap: event %d has seq %d, want %d", i, ev.Seq, cursor+i+1)
		}
		if seen[ev.Seq] {
			t.Fatalf("resumed stream duplicates seq %d", ev.Seq)
		}
		seen[ev.Seq] = true
	}
	for s := 1; s <= total; s++ {
		if !seen[s] {
			t.Fatalf("seq %d never delivered across the restart", s)
		}
	}

	// Pre-restart tickets still resolve, with their settled state intact.
	for _, tc := range []struct {
		id   string
		want engine.TicketStatus
	}{{regT, engine.TicketDone}, {shareT, engine.TicketDone}, {reqT, engine.TicketDone}} {
		tk, err := c2.Ticket(tc.id)
		if err != nil {
			t.Fatalf("ticket %s lost across restart: %v", tc.id, err)
		}
		if tk.Status != tc.want {
			t.Fatalf("ticket %s status %s after restart, want %s", tc.id, tk.Status, tc.want)
		}
	}
	if tk, _ := c2.Ticket(reqT); tk.TxID != reqTk.TxID || tk.Price != reqTk.Price {
		t.Fatalf("settled ticket changed across restart: %+v vs %+v", tk, reqTk)
	}

	// The rebooted engine keeps serving: a new request matches against the
	// replayed catalog, and its events extend the stream contiguously.
	req2T, err := c2.SubmitRequestAsync(RequestReq{
		Buyer:   "b1",
		Columns: []string{"x", "y"},
		Curve:   []CurvePointSpec{{MinSatisfaction: 0.5, Price: 140}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ran, err := c2.TriggerEpoch(); err != nil || !ran {
		t.Fatalf("post-restart epoch: ran=%v err=%v", ran, err)
	}
	tk2, err := c2.WaitTicket(req2T, time.Second)
	if err != nil || tk2.Status != engine.TicketDone {
		t.Fatalf("post-restart request did not settle: %+v err=%v", tk2, err)
	}
	ext, err := c2.Events(total)
	if err != nil {
		t.Fatal(err)
	}
	if len(ext) == 0 || ext[0].Seq != total+1 {
		t.Fatalf("post-restart events do not extend the stream: %+v", ext)
	}
	if _, conserved, err := c2.Settlements(); err != nil || !conserved {
		t.Fatalf("settlement conservation after restart: conserved=%v err=%v", conserved, err)
	}

	// Stats expose the durable watermark.
	st, err := c2.EngineStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.LastPersisted != st.Events {
		t.Fatalf("last_persisted %d lags events %d under always-fsync", st.LastPersisted, st.Events)
	}
}

// TestSnapshotEndpoint exercises the /snapshot admin surface: 503 on an
// in-memory market, and path+seq on a durable one-shard market, whose
// lineage lives directly in its directory.
func TestSnapshotEndpoint(t *testing.T) {
	_, _, c, done := asyncFixture(t, engine.Config{Shards: 2})
	defer done()
	if _, _, err := c.Snapshot(); err == nil {
		t.Fatal("snapshot without a store must fail")
	}

	dir := t.TempDir()
	m, err := federation.Open(federation.Config{Dir: dir, Sync: wal.SyncAlways,
		Engine: engine.Config{Shards: 2}, Platform: core.Options{Design: "posted-baseline"}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	srv := httptest.NewServer(NewMarketServer(m))
	defer srv.Close()
	c2 := NewClient(srv.URL)
	regT, err := c2.RegisterAsync("b1", 500)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c2.TriggerEpoch(); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.WaitTicket(regT, time.Second); err != nil {
		t.Fatal(err)
	}

	path, seq, err := c2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if seq == 0 || path == "" {
		t.Fatalf("snapshot wrote nothing: path=%q seq=%d", path, seq)
	}
	snap, err := wal.LoadSnapshot(dir)
	if err != nil || snap == nil || snap.TakenAtSeq != seq {
		t.Fatalf("written snapshot not loadable: %+v err=%v", snap, err)
	}
}
