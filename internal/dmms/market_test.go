package dmms

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/federation"
	"repro/internal/obs"
	"repro/internal/wal"
)

// openMarket opens a market of the given shard count (durable when dir is
// set) and serves it; the market and server close with the test.
func openMarket(t testing.TB, shards int, dir string, reg *obs.Registry) (*federation.Market, *httptest.Server) {
	t.Helper()
	m, err := federation.Open(federation.Config{
		Shards: shards, Dir: dir, Sync: wal.SyncAlways, Metrics: reg,
		Engine:   engine.Config{Shards: 2, DoDWorkers: 2},
		Platform: core.Options{Design: "posted-baseline"},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := NewMarketServer(m)
	s.SetMetrics(reg)
	srv := httptest.NewServer(s)
	t.Cleanup(func() {
		srv.Close()
		m.Stop()
	})
	return m, srv
}

// driveSettle registers a buyer and a seller on shard 0, shares a dataset
// and settles one request over HTTP; it returns the request's ticket.
func driveSettle(t *testing.T, c *Client, shards int) string {
	t.Helper()
	must := mustTicket(t)
	buyer, seller := fedNameOn(t, "buyer", 0, shards), fedNameOn(t, "seller", 0, shards)
	settle(t, c, must(c.RegisterAsync(buyer, 5000)),
		must(c.ShareDatasetAsync(seller, seller+"/d1", asyncRelation(seller+"/d1", 30), "open")))
	req := must(c.SubmitRequestAsync(RequestReq{Buyer: buyer, Columns: []string{"x", "y"},
		Curve: []CurvePointSpec{{MinSatisfaction: 0.5, Price: 150}}}))
	if tk := settle(t, c, req)[0]; tk.Status != engine.TicketDone {
		t.Fatalf("request did not settle: %+v", tk)
	}
	return req
}

// TestBalanceUnknownAccount404: every shard count answers an unknown
// account with 404 and a known one with its balance.
func TestBalanceUnknownAccount404(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			_, srv := openMarket(t, shards, "", nil)
			c := NewClient(srv.URL)
			settle(t, c, mustTicket(t)(c.RegisterAsync("b1", 250)))
			if bal, err := c.Balance("b1"); err != nil || bal != 250 {
				t.Fatalf("known account: balance %v err=%v", bal, err)
			}
			resp, err := http.Get(srv.URL + "/balance?account=nobody")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Fatalf("unknown account: HTTP %d, want 404", resp.StatusCode)
			}
		})
	}
}

// TestTicketViewCarriesTrace: with telemetry on, GET /async/tickets/{id}
// carries the request's stamped pipeline trace on every shard count.
func TestTicketViewCarriesTrace(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			_, srv := openMarket(t, shards, "", obs.NewRegistry())
			req := driveSettle(t, NewClient(srv.URL), shards)
			var view TicketView
			fedDo(t, srv.Config.Handler, "GET", "/async/tickets/"+req, nil, &view)
			if _, ok := view.Trace[obs.StageSettle]; !ok {
				t.Fatalf("ticket %s view has no settle stamp: %+v", req, view)
			}
		})
	}
}

// classicFamilies is the /metrics family list of the single-engine gateway
// this server replaced (engine + WAL + HTTP telemetry, DoD worker pool on),
// with each family's label names. A one-shard market must export every one
// of them with exactly these labels.
var classicFamilies = map[string]string{
	"arbiter_open_requests":              "",
	"arbiter_round_seconds":              "",
	"arbiter_unmet_wants":                "",
	"dmms_http_request_seconds":          "route",
	"dmms_http_requests_total":           "route,code",
	"dod_build_deadline_exceeded_total":  "",
	"dod_build_queue_depth":              "",
	"dod_build_seconds":                  "",
	"dod_builds_cancelled_total":         "",
	"dod_builds_total":                   "",
	"dod_cache_entries":                  "",
	"dod_cache_evictions_total":          "",
	"dod_cache_hits_total":               "",
	"dod_cache_misses_total":             "",
	"dod_cache_stale_total":              "",
	"dod_subjoin_memo_hits_total":        "",
	"dod_worker_busy_seconds_total":      "worker",
	"dod_worker_panics_total":            "",
	"engine_admission_rejections_total":  "reason",
	"engine_aged_requests_total":         "",
	"engine_applied_total":               "",
	"engine_epoch_lag_seconds":           "",
	"engine_epoch_seconds":               "",
	"engine_epochs_total":                "",
	"engine_failed_total":                "",
	"engine_intake_queue_depth":          "shard",
	"engine_matched_total":               "",
	"engine_pending_submissions":         "",
	"engine_price_seconds_total":         "",
	"engine_stage_seconds":               "stage",
	"engine_submit_to_settle_seconds":    "",
	"engine_submitted_total":             "",
	"market_allocator_escalations_total": "",
	"market_allocator_evals_total":       "",
	"market_allocator_exact_total":       "",
	"market_allocator_incremental_total": "",
	"market_allocator_memo_hits_total":   "",
	"market_allocator_sampled_total":     "",
	"relation_materializations_total":    "",
	"relation_rows_streamed_total":       "",
	"wal_append_seconds":                 "",
	"wal_bytes_written_total":            "",
	"wal_fsync_seconds":                  "",
	"wal_recovery_truncations_total":     "",
	"wal_segments":                       "",
}

var labelName = regexp.MustCompile(`([a-zA-Z_]+)="`)

// metricFamilies scrapes /metrics and returns each declared family with the
// label names its samples carry (histogram "le" excluded).
func metricFamilies(t *testing.T, url string) map[string]map[string]bool {
	t.Helper()
	text, _ := scrapeMetrics(t, url)
	fams := map[string]map[string]bool{}
	for _, line := range strings.Split(text, "\n") {
		if f, ok := strings.CutPrefix(line, "# TYPE "); ok {
			fams[strings.Fields(f)[0]] = map[string]bool{}
		}
	}
	for _, line := range strings.Split(text, "\n") {
		open := strings.IndexByte(line, '{')
		if open < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		name := line[:open]
		for _, suffix := range []string{"_bucket", "_count", "_sum"} {
			if _, ok := fams[name]; !ok {
				name = strings.TrimSuffix(name, suffix)
			}
		}
		for _, m := range labelName.FindAllStringSubmatch(line[open:strings.LastIndexByte(line, '}')], -1) {
			if fams[name] != nil && m[1] != "le" {
				fams[name][m[1]] = true
			}
		}
	}
	return fams
}

// TestMetricsFamilyParity: a one-shard market exports every family the
// single-engine gateway did — WAL families included — with no new labels,
// and a two-shard market exports every family a one-shard market does.
func TestMetricsFamilyParity(t *testing.T) {
	scrape := func(shards int) map[string]map[string]bool {
		_, srv := openMarket(t, shards, t.TempDir(), obs.NewRegistry())
		driveSettle(t, NewClient(srv.URL), shards)
		return metricFamilies(t, srv.URL)
	}
	one := scrape(1)
	for name, labels := range classicFamilies {
		got, ok := one[name]
		if !ok {
			t.Errorf("shards=1: family %s missing", name)
			continue
		}
		want := map[string]bool{}
		for _, l := range strings.Split(labels, ",") {
			want[l] = l != ""
		}
		for l := range got {
			if !want[l] {
				t.Errorf("shards=1: family %s gained label %q (want only %q)", name, l, labels)
			}
		}
	}
	two := scrape(2)
	var missing []string
	for name := range one {
		if _, ok := two[name]; !ok {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("shards=2 lacks families shards=1 exports: %v", missing)
	}
}

// fuzzRoutes are the POST routes the fuzzer drives. POST /save is left out:
// it writes the catalog to a server-side directory named in the body, so
// fuzzing it would scatter directories over the test's working tree.
var fuzzRoutes = []string{
	"/async/participants", "/async/datasets", "/async/requests", "/async/report",
	"/epoch", "/snapshot",
}

// fuzzMarkets holds a one- and a two-shard durable market, replaced with
// fresh ones every fuzzResetEvery inputs so queues, catalogs and WALs stay
// small however long the fuzzer runs.
type fuzzMarkets struct {
	dir     string // parent of every market directory
	markets []*federation.Market
	servers []*Server
	inputs  int
}

const fuzzResetEvery = 256

func (fm *fuzzMarkets) handlers(t *testing.T) []*Server {
	if fm.inputs%fuzzResetEvery == 0 {
		fm.close()
		for _, shards := range []int{1, 2} {
			dir, err := os.MkdirTemp(fm.dir, "market")
			if err != nil {
				t.Fatal(err)
			}
			m, err := federation.Open(federation.Config{
				Shards: shards, Dir: dir, Sync: wal.SyncOff,
				Engine:   engine.Config{Shards: 2},
				Platform: core.Options{Design: "posted-baseline"},
			})
			if err != nil {
				t.Fatal(err)
			}
			fm.markets = append(fm.markets, m)
			fm.servers = append(fm.servers, NewMarketServer(m))
		}
	}
	fm.inputs++
	return fm.servers
}

func (fm *fuzzMarkets) close() {
	for _, m := range fm.markets {
		m.Stop()
	}
	fm.markets, fm.servers = nil, nil
}

// FuzzHTTPSubmit sends arbitrary bodies and X-DMMS-Priority values to every
// POST route of a one- and a two-shard market: nothing may panic, and no
// input may earn a 5xx — malformed submissions are the client's fault.
func FuzzHTTPSubmit(f *testing.F) {
	share, err := json.Marshal(DatasetReq{Seller: "s1", ID: "s1/d1", Relation: asyncRelation("s1/d1", 5)})
	if err != nil {
		f.Fatal(err)
	}
	seeds := []struct {
		route    int
		body     string
		priority string
	}{
		{0, `{"name":"b1","funds":500}`, ""},
		{1, string(share), ""},
		{2, `{"buyer":"b1","columns":["x","y"],"curve":[{"min_satisfaction":0.5,"price":150}]}`, "high"},
		{2, `{"buyer":"b1","columns":["x"],"task":{"kind":"classifier","features":["x"],"label":"y"},"priority":"low"}`, "7"},
		{3, `{"tx_id":"tx-000001","reported":1,"true_value":1}`, ""},
		{4, ``, ""},
		{5, `{}`, ""},
	}
	for _, s := range seeds {
		f.Add(uint8(s.route), []byte(s.body), s.priority)
	}
	fm := &fuzzMarkets{dir: f.TempDir()}
	f.Cleanup(fm.close)
	f.Fuzz(func(t *testing.T, route uint8, body []byte, priority string) {
		path := fuzzRoutes[int(route)%len(fuzzRoutes)]
		for _, h := range fm.handlers(t) {
			req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
			req.Header.Set(PriorityHeader, priority)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code >= 500 {
				t.Fatalf("POST %s (shards=%d) %q priority %q: HTTP %d %s",
					path, h.market.NumShards(), body, priority, rec.Code, rec.Body.String())
			}
		}
	})
}

// TestEngineServerIsOneShardMarket: the engine-backed constructor serves
// the caller's engine as a one-shard market — bare ticket IDs, no snapshot
// lineage — while the caller keeps the engine's lifecycle.
func TestEngineServerIsOneShardMarket(t *testing.T) {
	_, eng, c, done := asyncFixture(t, engine.Config{Shards: 2})
	defer done()
	tk, err := c.RegisterAsync("b1", 10)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(tk, ":") {
		t.Fatalf("one-shard ticket %q is shard-prefixed", tk)
	}
	if got, ok := eng.Ticket(tk); !ok || got.ID != tk {
		t.Fatalf("ticket %q not on the caller's engine", tk)
	}
	var designs map[string]any
	if err := c.get("/designs", &designs); err != nil || designs["shards"] != float64(1) {
		t.Fatalf("designs = %v err=%v", designs, err)
	}
	if _, _, err := c.Snapshot(); err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("snapshot on an engine server: %v, want 503", err)
	}
}

// TestShareIDCollision409: on two shards, sharing a dataset ID another
// shard already holds answers 409 Conflict and files nothing; the first
// owner keeps the dataset. On one shard the duplicate is accepted at intake
// and its ticket fails at the epoch, as it always did.
func TestShareIDCollision409(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			m, srv := openMarket(t, shards, "", nil)
			c := NewClient(srv.URL)
			first, second := fedNameOn(t, "first", 0, shards), fedNameOn(t, "second", shards-1, shards)
			settle(t, c, mustTicket(t)(c.ShareDatasetAsync(first, "dup", asyncRelation("dup", 5), "open")))
			rec := fedDo(t, srv.Config.Handler, "POST", "/async/datasets",
				DatasetReq{Seller: second, ID: "dup", Relation: asyncRelation("dup", 7), License: "open"}, nil)
			if shards > 1 {
				fedWantCode(t, rec, http.StatusConflict)
			} else {
				fedWantCode(t, rec, http.StatusAccepted)
				var tk TicketResp
				if err := json.Unmarshal(rec.Body.Bytes(), &tk); err != nil {
					t.Fatal(err)
				}
				if got := settle(t, c, tk.Ticket)[0]; got.Status != engine.TicketFailed {
					t.Fatalf("one-shard duplicate ticket %+v, want failed at the epoch", got)
				}
			}
			cat := m.Shards()[0].Platform.Arbiter.Catalog
			if owner := cat.Owner("dup"); owner != first {
				t.Fatalf("owner of dup is %q, want %q", owner, first)
			}
			if rel, err := cat.Current("dup"); err != nil || rel.NumRows() != 5 {
				t.Fatalf("first owner's copy changed: %v (err %v)", rel, err)
			}
		})
	}
}

// TestShareInvalidTerms400: license terms that fail validation are a 400 at
// intake on every shard count, so no ticket is filed and, on two shards,
// the router never reserves the dataset ID for a share that cannot apply —
// a later valid share of the same ID from any shard succeeds.
func TestShareInvalidTerms400(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			m, srv := openMarket(t, shards, "", nil)
			c := NewClient(srv.URL)
			first, second := fedNameOn(t, "first", 0, shards), fedNameOn(t, "second", shards-1, shards)
			for _, bad := range []DatasetReq{
				{Seller: first, ID: "terms", Relation: asyncRelation("terms", 5), License: "bogus"},
				{Seller: first, ID: "terms", Relation: asyncRelation("terms", 5), License: "open", TaxRate: 0.2},
			} {
				fedWantCode(t, fedDo(t, srv.Config.Handler, "POST", "/async/datasets", bad, nil), http.StatusBadRequest)
			}
			if got := settle(t, c, mustTicket(t)(c.ShareDatasetAsync(second, "terms", asyncRelation("terms", 7), "open")))[0]; got.Status != engine.TicketDone {
				t.Fatalf("valid share after rejected ones: %+v", got)
			}
			if owner := m.Shards()[federation.HomeOf(second, shards)].Platform.Arbiter.Catalog.Owner("terms"); owner != second {
				t.Fatalf("owner of terms is %q, want %q", owner, second)
			}
		})
	}
}
