package dmms

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/federation"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/wal"
)

// fedNameOn brute-forces a participant name hashing to the given home shard,
// so the HTTP workload can pin buyers and sellers to shards deterministically.
func fedNameOn(t *testing.T, prefix string, shard, shards int) string {
	t.Helper()
	for i := 0; i < 100000; i++ {
		n := fmt.Sprintf("%s%d", prefix, i)
		if federation.HomeOf(n, shards) == shard {
			return n
		}
	}
	t.Fatalf("no name with prefix %q on shard %d/%d", prefix, shard, shards)
	return ""
}

// fedKeyedRel builds a join-half relation (shared key k + one value column),
// so a want for both value columns clears only through a cross-dataset join.
func fedKeyedRel(name, valCol string, rows int) *relation.Relation {
	r := relation.New(name, relation.NewSchema(
		relation.Col("k", relation.KindInt), relation.Col(valCol, relation.KindFloat)))
	for i := 0; i < rows; i++ {
		r.MustAppend(relation.Int(int64(i)), relation.Float(float64(i)*2.5))
	}
	return r
}

// fedDo runs one request against the federation server and decodes the JSON
// response into out (skipped when out is nil).
func fedDo(t *testing.T, h http.Handler, method, path string, body, out any) *httptest.ResponseRecorder {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(buf)
	} else {
		rd = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: decode %q: %v", method, path, rec.Body.String(), err)
		}
	}
	return rec
}

func fedWantCode(t *testing.T, rec *httptest.ResponseRecorder, code int) {
	t.Helper()
	if rec.Code != code {
		t.Fatalf("got HTTP %d (%s), want %d", rec.Code, rec.Body.String(), code)
	}
}

// TestFederationServerEndToEnd drives a two-shard in-memory federation over
// HTTP: shard-local and cross-shard wants, the aggregated stats view,
// per-shard event logs, the merged settlement book, home-routed balances.
func TestFederationServerEndToEnd(t *testing.T) {
	m, err := federation.Open(federation.Config{
		Shards:   2,
		Engine:   engine.Config{Shards: 2},
		Platform: core.Options{Design: "posted-baseline"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	s := NewMarketServer(m)

	buyer := fedNameOn(t, "buyer", 0, 2)
	sellA := fedNameOn(t, "sellA", 0, 2)
	sellB := fedNameOn(t, "sellB", 1, 2)

	var tk TicketResp
	fedWantCode(t, fedDo(t, s, "POST", "/async/participants", ParticipantReq{Name: buyer, Funds: 5000}, &tk), http.StatusAccepted)
	if !strings.HasPrefix(tk.Ticket, "s0:") {
		t.Fatalf("buyer ticket %q not on shard 0", tk.Ticket)
	}
	fedWantCode(t, fedDo(t, s, "POST", "/async/datasets", DatasetReq{
		Seller: sellA, ID: sellA + "/d0", Relation: fedKeyedRel(sellA+"/d0", "a", 40)}, nil), http.StatusAccepted)
	fedWantCode(t, fedDo(t, s, "POST", "/async/datasets", DatasetReq{
		Seller: sellB, ID: sellB + "/d0", Relation: fedKeyedRel(sellB+"/d0", "b", 40)}, &tk), http.StatusAccepted)
	if !strings.HasPrefix(tk.Ticket, "s1:") {
		t.Fatalf("sellB ticket %q not on shard 1", tk.Ticket)
	}
	fedDo(t, s, "POST", "/epoch", nil, nil)

	// A local want (columns on the buyer's home shard) and a spanning one.
	fedWantCode(t, fedDo(t, s, "POST", "/async/requests", RequestReq{
		Buyer: buyer, Columns: []string{"k", "a"},
		Task:  TaskSpec{Kind: "coverage", WantRows: 1},
		Curve: []CurvePointSpec{{MinSatisfaction: 0.5, Price: 100}},
	}, &tk), http.StatusAccepted)
	if !strings.HasPrefix(tk.Ticket, "s0:") {
		t.Fatalf("local want ticket %q not on shard 0", tk.Ticket)
	}
	var xtk TicketResp
	fedWantCode(t, fedDo(t, s, "POST", "/async/requests", RequestReq{
		Buyer: buyer, Columns: []string{"a", "b"},
		Task:  TaskSpec{Kind: "coverage", WantRows: 1},
		Curve: []CurvePointSpec{{MinSatisfaction: 0.9, Price: 900}},
	}, &xtk), http.StatusAccepted)
	if !strings.HasPrefix(xtk.Ticket, "x:") {
		t.Fatalf("spanning want ticket %q not on the coordinator", xtk.Ticket)
	}
	fedDo(t, s, "POST", "/epoch", nil, nil)

	var tv TicketView
	fedWantCode(t, fedDo(t, s, "GET", "/async/tickets/"+xtk.Ticket, nil, &tv), http.StatusOK)
	if tv.Status != engine.TicketDone || tv.TxID != "xtx-000001" {
		t.Fatalf("spanning ticket = %+v, want done with xtx-000001", tv.Ticket)
	}
	fedWantCode(t, fedDo(t, s, "GET", "/async/tickets/nope", nil, nil), http.StatusNotFound)

	// Aggregated stats: both settles counted, federation block present.
	var sv StatsView
	fedWantCode(t, fedDo(t, s, "GET", "/engine/stats", nil, &sv), http.StatusOK)
	if sv.Matched != 2 {
		t.Fatalf("aggregate Matched = %d, want 2", sv.Matched)
	}
	if sv.Federation.Shards != 2 || sv.Federation.XTxCommitted != 1 || sv.Federation.CoordinatorPending != 0 {
		t.Fatalf("federation block = %+v", sv.Federation)
	}
	if len(sv.Federation.PerShard) != 0 {
		t.Fatalf("per-shard detail present without ?per-shard=1")
	}
	fedWantCode(t, fedDo(t, s, "GET", "/engine/stats?per-shard=1", nil, &sv), http.StatusOK)
	if len(sv.Federation.PerShard) != 2 {
		t.Fatalf("per-shard detail has %d entries, want 2", len(sv.Federation.PerShard))
	}
	var one engine.Stats
	fedWantCode(t, fedDo(t, s, "GET", "/engine/stats?shard=1", nil, &one), http.StatusOK)
	if one.Matched != 0 {
		t.Fatalf("shard 1 Matched = %d, want 0 (both settles touch shard 0's book)", one.Matched)
	}
	fedWantCode(t, fedDo(t, s, "GET", "/engine/stats?shard=9", nil, nil), http.StatusBadRequest)

	// Settlement book: merged across shards, TxIDs in federation form. The
	// book is fed by each engine's event-log subscriber, so poll briefly.
	var book struct {
		Settlements []SettlementView `json:"settlements"`
		Conserved   bool             `json:"conserved"`
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		fedWantCode(t, fedDo(t, s, "GET", "/settlements", nil, &book), http.StatusOK)
		if len(book.Settlements) > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !book.Conserved {
		t.Fatal("settlement book not conserved")
	}
	found := false
	for _, st := range book.Settlements {
		if strings.HasPrefix(st.TxID, "s0:") && st.Buyer == buyer {
			found = true
		}
	}
	if !found {
		t.Fatalf("no s0: settlement for %s in %+v", buyer, book.Settlements)
	}

	// Events are per-shard views; a multi-shard market demands ?shard=i.
	fedWantCode(t, fedDo(t, s, "GET", "/events", nil, nil), http.StatusBadRequest)
	var evs []engine.Event
	fedWantCode(t, fedDo(t, s, "GET", "/events?shard=1", nil, &evs), http.StatusOK)
	if len(evs) == 0 {
		t.Fatal("shard 1 event log empty")
	}
	for _, ev := range evs {
		if ev.Payload != nil {
			t.Fatalf("event %d payload not redacted", ev.Seq)
		}
	}

	// Balances route to the home shard's ledger.
	var bal map[string]float64
	fedWantCode(t, fedDo(t, s, "GET", "/balance?account="+sellB, nil, &bal), http.StatusOK)
	if bal["balance"] <= 0 {
		t.Fatalf("remote seller balance = %v, want > 0", bal["balance"])
	}
	fedWantCode(t, fedDo(t, s, "GET", "/balance?account=nobody", nil, nil), http.StatusNotFound)
	fedWantCode(t, fedDo(t, s, "GET", "/balance", nil, nil), http.StatusBadRequest)

	var designs map[string]any
	fedWantCode(t, fedDo(t, s, "GET", "/designs", nil, &designs), http.StatusOK)
	if designs["design"] != "posted-baseline" || designs["shards"] != float64(2) {
		t.Fatalf("designs = %v", designs)
	}

	// In-memory market: no snapshot lineage.
	fedWantCode(t, fedDo(t, s, "POST", "/snapshot", nil, nil), http.StatusServiceUnavailable)

	// Ex-post reports against cross-shard transactions are refused (they
	// settle up-front); the refusal travels as an ordinary submit error.
	fedWantCode(t, fedDo(t, s, "POST", "/async/report",
		ReportReq{TxID: "xtx-000001", Reported: 1, TrueValue: 1}, nil), http.StatusBadRequest)
}

// TestFederationServerSnapshot exercises POST /snapshot on a durable
// federation: one checkpoint per shard, written under the coordinator mutex.
func TestFederationServerSnapshot(t *testing.T) {
	m, err := federation.Open(federation.Config{
		Shards:   2,
		Dir:      t.TempDir(),
		Sync:     wal.SyncAlways,
		Engine:   engine.Config{Shards: 2},
		Platform: core.Options{Design: "posted-baseline"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	s := NewMarketServer(m)

	fedWantCode(t, fedDo(t, s, "POST", "/async/participants",
		ParticipantReq{Name: "b1", Funds: 100}, nil), http.StatusAccepted)
	fedDo(t, s, "POST", "/epoch", nil, nil)

	var resp SnapshotResp
	fedWantCode(t, fedDo(t, s, "POST", "/snapshot", nil, &resp), http.StatusOK)
	if len(resp.Paths) != 2 {
		t.Fatalf("snapshot wrote %d checkpoints, want 2: %v", len(resp.Paths), resp.Paths)
	}
}

// TestFederationServerMetrics wires a registry and asserts the scrape carries
// the HTTP families plus the federation aggregates.
func TestFederationServerMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	m, err := federation.Open(federation.Config{
		Shards:   2,
		Engine:   engine.Config{Shards: 2},
		Platform: core.Options{Design: "posted-baseline"},
		Metrics:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	s := NewMarketServer(m)
	s.SetMetrics(reg)

	fedDo(t, s, "POST", "/epoch", nil, nil)
	rec := fedDo(t, s, "GET", "/metrics", nil, nil)
	fedWantCode(t, rec, http.StatusOK)
	body := rec.Body.String()
	for _, want := range []string{"federation_shards 2", "dmms_http_requests_total", "engine_epochs_total"} {
		if !strings.Contains(body, want) {
			t.Fatalf("scrape missing %q:\n%s", want, body)
		}
	}
}
