// Package dmms exposes the data market platform over HTTP: the wire-level
// Data Market Management System. Sellers and buyers run remote platforms
// (SMP/BMP) that talk JSON to the arbiter (AMP) — the deployment shape of
// paper Fig. 2. Only serializable WTP tasks travel over the wire (coverage
// and classifier packages); arbitrary code packages stay in-process.
package dmms

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/dod"
	"repro/internal/engine"
	"repro/internal/federation"
	"repro/internal/license"
	"repro/internal/mltask"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/wtp"
)

// Server serves a market (internal/federation, N >= 1 shards) over HTTP.
// Submissions return tickets immediately, epochs clear the market in the
// background, and clients follow progress via tickets and the event log.
// Every submission is routed to its home shard (or the cross-shard
// coordinator); per-arbiter reads take ?shard=i when the market has more
// than one shard. A one-shard market answers in the single-arbiter wire
// shapes: bare IDs and no shard parameter.
type Server struct {
	mux    *http.ServeMux
	hm     atomic.Pointer[httpMetrics]
	market *federation.Market
}

// httpMetrics bundles the per-route instruments with the registry that
// backs GET /metrics.
type httpMetrics struct {
	reg  *obs.Registry
	reqs *obs.CounterVec   // dmms_http_requests_total{route,code}
	dur  *obs.HistogramVec // dmms_http_request_seconds{route}
}

// NewMarketServer builds the HTTP front end over a market. The caller owns
// the market's lifecycle (Start/Stop).
func NewMarketServer(m *federation.Market) *Server {
	s := &Server{mux: http.NewServeMux(), market: m}
	s.handle("POST /async/participants", s.handleParticipants)
	s.handle("POST /async/datasets", s.handleDatasets)
	s.handle("POST /async/requests", s.handleRequests)
	s.handle("POST /async/report", s.handleReport)
	s.handle("GET /async/tickets/{id}", s.handleTicket)
	s.handle("GET /events", s.handleEvents)
	s.handle("POST /epoch", s.handleEpoch)
	s.handle("GET /engine/stats", s.handleStats)
	s.handle("GET /settlements", s.handleSettlements)
	s.handle("GET /balance", s.handleBalance)
	s.handle("GET /designs", s.handleDesigns)
	s.handle("GET /history", s.handleHistory)
	s.handle("GET /demand", s.handleDemand)
	s.handle("POST /save", s.handleSave)
	s.handle("POST /snapshot", s.handleSnapshot)
	// Telemetry exposition — deliberately uninstrumented: a scrape should
	// never perturb the series it is reading.
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// NewEngineServer serves a caller-built platform and engine as a one-shard
// market (federation.Wrap). The caller owns the engine's lifecycle
// (Start/Stop) and its persister; POST /snapshot answers 503.
func NewEngineServer(p *core.Platform, eng *engine.Engine) *Server {
	return NewMarketServer(federation.Wrap(p, eng))
}

// SetMetrics wires a telemetry registry: every route gains request-count and
// latency series, and GET /metrics serves the registry's Prometheus text.
// Pass nil to disable (the endpoint answers 503 again). The pointer is
// atomic so metrics can be wired after construction without racing
// in-flight requests.
func (s *Server) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		s.hm.Store(nil)
		return
	}
	s.hm.Store(&httpMetrics{
		reg: reg,
		reqs: reg.NewCounterVec("dmms_http_requests_total",
			"HTTP requests served, by route pattern and status code.", "route", "code"),
		dur: reg.NewHistogramVec("dmms_http_request_seconds",
			"HTTP request latency by route pattern.", obs.DefBuckets, "route"),
	})
}

// handle registers an instrumented route. The metric label is the pattern's
// path part ("/async/tickets/{id}"), so path parameters never explode the
// series cardinality.
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	route := pattern
	if i := strings.IndexByte(pattern, ' '); i >= 0 {
		route = pattern[i+1:]
	}
	s.mux.HandleFunc(pattern, s.instrument(route, h))
}

// statusRecorder captures the response status for the request counter.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.code = code
	sr.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with per-route latency and count series. With
// no metrics wired it is a plain passthrough.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		hm := s.hm.Load()
		if hm == nil {
			h(w, r)
			return
		}
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h(rec, r)
		hm.dur.With(route).Observe(time.Since(start).Seconds())
		hm.reqs.With(route, strconv.Itoa(rec.code)).Inc()
	}
}

// handleMetrics serves the registry in Prometheus text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	hm := s.hm.Load()
	if hm == nil {
		writeErr(w, http.StatusServiceUnavailable, fmt.Errorf("dmms: metrics disabled (run the gateway with -metrics)"))
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = hm.reg.WritePrometheus(w)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// PriorityHeader carries a request's priority class ("low" | "normal" |
// "high" or an integer) on POST /async/requests; it overrides the JSON
// body's priority field.
const PriorityHeader = "X-DMMS-Priority"

// writeSubmitErr maps an engine intake error onto the wire: admission
// rejections become 429 Too Many Requests with a Retry-After header (whole
// seconds, rounded up) so well-behaved clients back off; a dataset ID
// another shard holds is 409 Conflict; anything else is a plain 400.
func writeSubmitErr(w http.ResponseWriter, err error) {
	if errors.Is(err, federation.ErrDatasetIDTaken) {
		writeErr(w, http.StatusConflict, err)
		return
	}
	var oe *engine.OverloadError
	if errors.As(err, &oe) {
		secs := int(math.Ceil(oe.RetryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeErr(w, http.StatusTooManyRequests, err)
		return
	}
	writeErr(w, http.StatusBadRequest, err)
}

// writeTicket answers a submission: 202 with its ticket, or the intake error.
func writeTicket(w http.ResponseWriter, ticket string, err error) {
	if err != nil {
		writeSubmitErr(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, TicketResp{Ticket: ticket})
}

// decodeBody decodes a JSON request body into v, answering 400 on failure.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return false
	}
	return true
}

// ParticipantReq registers a buyer or seller account.
type ParticipantReq struct {
	Name  string  `json:"name"`
	Funds float64 `json:"funds"`
}

// DatasetReq shares a dataset with the arbiter.
type DatasetReq struct {
	Seller   string             `json:"seller"`
	ID       string             `json:"id"`
	Relation *relation.Relation `json:"relation"`
	License  string             `json:"license"` // open|no-resale|exclusive|transfer
	TaxRate  float64            `json:"tax_rate,omitempty"`
	Author   string             `json:"author,omitempty"`
}

// datasetTerms validates a DatasetReq and derives its license terms and
// metadata.
func datasetTerms(req DatasetReq) (license.Terms, wtp.DatasetMeta, error) {
	if req.Relation == nil || req.ID == "" || req.Seller == "" {
		return license.Terms{}, wtp.DatasetMeta{}, fmt.Errorf("dmms: seller, id and relation are required")
	}
	kind := license.Kind(req.License)
	if req.License == "" {
		kind = license.Open
	}
	terms := license.Terms{Kind: kind, ExclusivityTaxRate: req.TaxRate}
	if err := terms.Validate(); err != nil {
		return license.Terms{}, wtp.DatasetMeta{}, err
	}
	meta := wtp.DatasetMeta{Dataset: req.ID, UpdatedAt: time.Now(), Author: req.Author, HasProvenance: true}
	return terms, meta, nil
}

// TaskSpec is the serializable task package of a WTP-function.
type TaskSpec struct {
	Kind string `json:"kind"` // "coverage" | "classifier"
	// Coverage.
	WantRows int `json:"want_rows,omitempty"`
	// Classifier.
	Features []string `json:"features,omitempty"`
	Label    string   `json:"label,omitempty"`
	Model    string   `json:"model,omitempty"`
	Seed     int64    `json:"seed,omitempty"`
}

// CurvePointSpec is one WTP price point.
type CurvePointSpec struct {
	MinSatisfaction float64 `json:"min_satisfaction"`
	Price           float64 `json:"price"`
}

// RequestReq files a buyer's data need.
type RequestReq struct {
	Buyer   string              `json:"buyer"`
	Columns []string            `json:"columns"`
	Aliases map[string][]string `json:"aliases,omitempty"`
	Task    TaskSpec            `json:"task"`
	Curve   []CurvePointSpec    `json:"curve"`
	MinRows int                 `json:"min_rows,omitempty"`
	// Priority is the request's priority class ("low" | "normal" | "high");
	// the X-DMMS-Priority header overrides it.
	Priority string `json:"priority,omitempty"`
}

// buildRequest turns the wire form into the arbiter's Want + WTP-function.
func buildRequest(req RequestReq) (dod.Want, *wtp.Function, error) {
	if len(req.Columns) == 0 {
		return dod.Want{}, nil, fmt.Errorf("dmms: request has no columns")
	}
	var task wtp.Task
	switch req.Task.Kind {
	case "classifier":
		task = wtp.ClassifierTask{Spec: mltask.ClassifierTask{
			Features: req.Task.Features, Label: req.Task.Label,
			Model: mltask.ModelKind(req.Task.Model), Seed: req.Task.Seed}}
	case "coverage", "":
		task = wtp.CoverageTask{Columns: req.Columns, WantRows: req.Task.WantRows}
	default:
		return dod.Want{}, nil, fmt.Errorf("dmms: unknown task kind %q", req.Task.Kind)
	}
	f := &wtp.Function{Buyer: req.Buyer, Task: task}
	for _, p := range req.Curve {
		f.Curve = append(f.Curve, wtp.CurvePoint{MinSatisfaction: p.MinSatisfaction, Price: p.Price})
	}
	f.Constraints.MinRows = req.MinRows
	want := dod.Want{Columns: req.Columns, Aliases: req.Aliases, MinRows: req.MinRows}
	return want, f, nil
}

// ReportReq settles an ex-post transaction.
type ReportReq struct {
	TxID      string  `json:"tx_id"`
	Reported  float64 `json:"reported"`
	TrueValue float64 `json:"true_value"`
}

// TicketResp acknowledges a submission.
type TicketResp struct {
	Ticket string `json:"ticket"`
}

func (s *Server) handleParticipants(w http.ResponseWriter, r *http.Request) {
	var req ParticipantReq
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Name == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("dmms: name is required"))
		return
	}
	ticket, err := s.market.SubmitRegister(req.Name, req.Funds)
	writeTicket(w, ticket, err)
}

func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	var req DatasetReq
	if !decodeBody(w, r, &req) {
		return
	}
	terms, meta, err := datasetTerms(req)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	ticket, err := s.market.SubmitShare(req.Seller, catalog.DatasetID(req.ID), req.Relation, meta, terms)
	writeTicket(w, ticket, err)
}

func (s *Server) handleRequests(w http.ResponseWriter, r *http.Request) {
	var req RequestReq
	if !decodeBody(w, r, &req) {
		return
	}
	want, f, err := buildRequest(req)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	label := req.Priority
	if h := r.Header.Get(PriorityHeader); h != "" {
		label = h
	}
	priority, err := engine.ParsePriority(label)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	ticket, err := s.market.SubmitRequestPriority(want, f, priority)
	writeTicket(w, ticket, err)
}

// handleReport queues an ex-post value report, so the settlement is
// epoch-applied and event-logged (value-reported).
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	var req ReportReq
	if !decodeBody(w, r, &req) {
		return
	}
	if req.TxID == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("dmms: tx_id is required"))
		return
	}
	ticket, err := s.market.SubmitReport(req.TxID, req.Reported, req.TrueValue)
	writeTicket(w, ticket, err)
}

// TicketView is a ticket plus its stamped pipeline trace (present only when
// telemetry is on and the span has not been evicted).
type TicketView struct {
	engine.Ticket
	Trace map[obs.Stage]time.Time `json:"trace,omitempty"`
}

func (s *Server) handleTicket(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	t, ok := s.market.Ticket(id)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("dmms: unknown ticket %q", id))
		return
	}
	writeJSON(w, http.StatusOK, TicketView{Ticket: t, Trace: s.market.TicketTrace(id)})
}

// oneShard resolves the shard a per-arbiter read targets: the one ?shard=i
// names, or shard 0 of a one-shard market. A multi-shard market has no
// merged order for these views (event seqs restart per shard), so it
// requires the parameter. It answers 400 and returns false otherwise.
func (s *Server) oneShard(w http.ResponseWriter, r *http.Request) (*federation.Shard, bool) {
	n := s.market.NumShards()
	v := r.URL.Query().Get("shard")
	if v == "" && n == 1 {
		return s.market.Shards()[0], true
	}
	i, err := strconv.Atoi(v)
	if err != nil || i < 0 || i >= n {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("dmms: this view is per shard; pass ?shard=i with i in [0,%d)", n))
		return nil, false
	}
	return s.market.Shards()[i], true
}

// someShards resolves a mergeable read: every shard, or only the one
// ?shard=i names. It answers 400 and returns false on a bad parameter.
func (s *Server) someShards(w http.ResponseWriter, r *http.Request) ([]*federation.Shard, bool) {
	if r.URL.Query().Get("shard") == "" {
		return s.market.Shards(), true
	}
	sh, ok := s.oneShard(w, r)
	return []*federation.Shard{sh}, ok
}

// handleEvents serves one shard's event log.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	sh, ok := s.oneShard(w, r)
	if !ok {
		return
	}
	after := 0
	if v := r.URL.Query().Get("after"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("dmms: bad after cursor %q", v))
			return
		}
		after = n
	}
	evs := sh.Engine.Events(after)
	if evs == nil {
		evs = []engine.Event{}
	}
	// Strip submission payloads: they exist for WAL replay and carry the
	// full shared relations — data the market sells, not a free download.
	for i := range evs {
		evs[i].Payload = nil
	}
	writeJSON(w, http.StatusOK, evs)
}

func (s *Server) handleEpoch(w http.ResponseWriter, r *http.Request) {
	epoch, ran := s.market.TriggerEpoch()
	writeJSON(w, http.StatusOK, map[string]any{"epoch": epoch, "ran": ran})
}

// FederationDetail is the federation block of the stats view.
type FederationDetail struct {
	Shards             int            `json:"shards"`
	CoordinatorPending int            `json:"coordinator_pending"`
	XTxCommitted       uint64         `json:"xtx_committed"`
	XTxAborted         uint64         `json:"xtx_aborted"`
	PerShard           []engine.Stats `json:"per_shard,omitempty"`
}

// StatsView is GET /engine/stats: the market-wide engine.Stats shape
// (summed over shards), plus a federation block (shard count, coordinator
// counters, and — with ?per-shard=1 — each shard's own stats). ?shard=i
// answers one shard's plain engine.Stats instead.
type StatsView struct {
	engine.Stats
	Federation FederationDetail `json:"federation"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("shard") != "" {
		if sh, ok := s.oneShard(w, r); ok {
			writeJSON(w, http.StatusOK, sh.Engine.Stats())
		}
		return
	}
	pending, settled, aborted := s.market.CoordStats()
	view := StatsView{
		Stats: s.market.Stats(),
		Federation: FederationDetail{
			Shards:             s.market.NumShards(),
			CoordinatorPending: pending,
			XTxCommitted:       settled,
			XTxAborted:         aborted,
		},
	}
	if q := r.URL.Query().Get("per-shard"); q == "1" || q == "true" {
		view.Federation.PerShard = s.market.ShardStats()
	}
	writeJSON(w, http.StatusOK, view)
}

// SettlementView is the wire form of one settlement-book entry.
type SettlementView struct {
	TxID       string             `json:"tx_id"`
	Epoch      uint64             `json:"epoch"`
	Buyer      string             `json:"buyer"`
	Price      float64            `json:"price"`
	ArbiterCut float64            `json:"arbiter_cut"`
	SellerCuts map[string]float64 `json:"seller_cuts,omitempty"`
	ExPost     bool               `json:"ex_post,omitempty"`
}

// handleSettlements merges the shards' settlement books, TxIDs in federation
// form. Conserved is the AND across shards — cross-shard transactions move
// value between shard ledgers, so only the market-wide view is meaningful.
// ?shard=i narrows to one shard.
func (s *Server) handleSettlements(w http.ResponseWriter, r *http.Request) {
	shards, ok := s.someShards(w, r)
	if !ok {
		return
	}
	out := []SettlementView{}
	conserved := true
	for _, sh := range shards {
		book := sh.Engine.Settlements()
		conserved = conserved && book.Conserved()
		for _, st := range book.All() {
			v := SettlementView{
				TxID: s.market.ShardID(sh.Index, st.TxID), Epoch: st.Epoch, Buyer: st.Buyer,
				Price: st.Price.Float(), ArbiterCut: st.ArbiterCut.Float(), ExPost: st.ExPost,
			}
			if len(st.SellerCuts) > 0 {
				v.SellerCuts = map[string]float64{}
				for name, c := range st.SellerCuts {
					v.SellerCuts[name] = c.Float()
				}
			}
			out = append(out, v)
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"settlements": out,
		"conserved":   conserved,
	})
}

// handleBalance answers a participant's balance from its home shard; an
// account the market does not know is a 404.
func (s *Server) handleBalance(w http.ResponseWriter, r *http.Request) {
	account := r.URL.Query().Get("account")
	if account == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("dmms: account query parameter required"))
		return
	}
	bal, ok := s.market.Balance(account)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("dmms: unknown account %q", account))
		return
	}
	writeJSON(w, http.StatusOK, map[string]float64{"balance": bal.Float()})
}

func (s *Server) handleDesigns(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"design": s.market.Shards()[0].Platform.Design.Label,
		"shards": s.market.NumShards(),
	})
}

// TxView is the wire form of a completed transaction.
type TxView struct {
	ID           string             `json:"id"`
	RequestID    string             `json:"request_id,omitempty"`
	Buyer        string             `json:"buyer"`
	Price        float64            `json:"price"`
	Satisfaction float64            `json:"satisfaction"`
	Datasets     []string           `json:"datasets"`
	SellerCuts   map[string]float64 `json:"seller_cuts"`
	ExPost       bool               `json:"ex_post"`
	Plan         []string           `json:"plan"`
}

// handleHistory merges the shards' transaction histories (tx IDs in
// federation form, request IDs shard-local as on tickets, mashup payloads
// omitted); ?shard=i narrows to one shard.
func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request) {
	shards, ok := s.someShards(w, r)
	if !ok {
		return
	}
	var out []TxView
	for _, sh := range shards {
		for _, tx := range sh.Platform.Arbiter.History() {
			out = append(out, TxView{
				ID: s.market.ShardID(sh.Index, tx.ID), RequestID: tx.RequestID, Buyer: tx.Buyer,
				Price: tx.Price, Satisfaction: tx.Satisfaction, Datasets: tx.Datasets,
				SellerCuts: tx.SellerCuts, ExPost: tx.ExPost, Plan: tx.Plan,
			})
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleDemand(w http.ResponseWriter, r *http.Request) {
	if sh, ok := s.oneShard(w, r); ok {
		writeJSON(w, http.StatusOK, sh.Platform.Arbiter.DemandSignals())
	}
}

// SaveReq asks the server to persist a shard's catalog to a directory.
type SaveReq struct {
	Dir string `json:"dir"`
}

func (s *Server) handleSave(w http.ResponseWriter, r *http.Request) {
	sh, ok := s.oneShard(w, r)
	if !ok {
		return
	}
	var req SaveReq
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Dir == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("dmms: dir is required"))
		return
	}
	if err := sh.Platform.Arbiter.Catalog.SaveDir(req.Dir); err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"saved": req.Dir})
}

// SnapshotResp reports the checkpoints POST /snapshot wrote, one per shard
// (index-aligned). Path and Seq repeat a one-shard market's only checkpoint
// — the single-arbiter wire shape — and are omitted with more shards.
type SnapshotResp struct {
	Path  string   `json:"path,omitempty"`
	Seq   int      `json:"seq,omitempty"`
	Paths []string `json:"paths"`
}

// handleSnapshot checkpoints every shard atomically w.r.t. the coordinator
// log (federation.Market.SnapshotAll); 503 on a market without a WAL
// directory.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	cps, err := s.market.SnapshotAll()
	if err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, federation.ErrNoSnapshotLineage) {
			code = http.StatusServiceUnavailable
		}
		writeErr(w, code, err)
		return
	}
	resp := SnapshotResp{Paths: []string{}}
	for _, cp := range cps {
		resp.Paths = append(resp.Paths, cp.Path)
	}
	if len(cps) == 1 {
		resp.Path, resp.Seq = cps[0].Path, cps[0].Seq
	}
	writeJSON(w, http.StatusOK, resp)
}
