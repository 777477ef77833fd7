package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/dmms"
	"repro/internal/dod"
	"repro/internal/engine"
	"repro/internal/federation"
	"repro/internal/ledger"
	"repro/internal/license"
	"repro/internal/market"
	"repro/internal/wal"
	"repro/internal/wtp"
)

// mkt is the market under test, reached only through its public entry
// points: a bare engine, an engine behind the dmms HTTP surface, or a
// federation of engines. The benchmark drives every epoch itself.
type mkt struct {
	s  *spec
	tr *tracer

	plats   []*core.Platform
	engines []*engine.Engine
	fed     *federation.Market
	srv     *httptest.Server
	client  *dmms.Client
	wal     *wal.Log
	walDir  string

	funds ledger.Currency // every registration's funds, summed

	epochNo atomic.Int64
	// cur holds, per engine, the Seq of the epoch span in flight: the
	// parent of the wal.persist and dod.build spans the engine reports.
	cur []atomic.Int64
	// builds collects, per engine, the dod.build spans of the epoch in
	// flight, so they can be re-homed under its price stage.
	bmu    sync.Mutex
	builds [][]int
	erecs  []epochRec
}

// persister wraps the WAL handed to engine.Config.Persister, timing each
// call as a wal.persist span under the epoch in flight.
type persister struct {
	m *mkt
	w *wal.Log
}

func (p persister) Persist(ev engine.Event) error {
	start := time.Now()
	err := p.w.Persist(ev)
	p.m.tr.add("wal.persist", strconv.FormatUint(ev.Epoch, 10), int(p.m.cur[0].Load()),
		start, time.Now(), string(ev.Kind))
	return err
}

// boot builds the market of a workload. dir holds its WAL when durable.
func boot(s *spec, tr *tracer, dir string) (*mkt, error) {
	m := &mkt{s: s, tr: tr}
	opts := core.Options{Design: "posted-baseline"}
	if s.adaptive {
		opts.Allocator = market.AdaptiveShapley{ExactMax: 12, TargetErr: 0.05}
	}
	// dmgateway's intake sharding; no ticker and no batch kick, because
	// the benchmark triggers every epoch.
	ecfg := engine.Config{Shards: 8}
	if s.shards > 0 {
		f, err := federation.Open(federation.Config{Shards: s.shards, Engine: ecfg, Platform: opts})
		if err != nil {
			return nil, err
		}
		m.fed = f
		for _, sh := range f.Shards() {
			m.plats = append(m.plats, sh.Platform)
			m.engines = append(m.engines, sh.Engine)
		}
	} else {
		p, err := core.NewPlatform(opts)
		if err != nil {
			return nil, err
		}
		if s.durable {
			m.walDir = filepath.Join(dir, "wal")
			if m.wal, err = wal.Open(wal.Options{Dir: m.walDir, Policy: wal.SyncEpoch}); err != nil {
				return nil, err
			}
			ecfg.Persister = m.wal
			if tr != nil {
				ecfg.Persister = persister{m: m, w: m.wal}
			}
		}
		m.plats = []*core.Platform{p}
		m.engines = []*engine.Engine{engine.New(p, ecfg)}
		if s.http {
			m.srv = httptest.NewServer(dmms.NewEngineServer(p, m.engines[0]))
			m.client = &dmms.Client{BaseURL: m.srv.URL, HTTP: &http.Client{
				Timeout:   30 * time.Second,
				Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2},
			}}
		}
	}
	m.cur = make([]atomic.Int64, len(m.engines))
	m.builds = make([][]int, len(m.engines))
	if tr != nil {
		for i, p := range m.plats {
			p.SetBuildObserver(func(sec float64) {
				end := time.Now()
				start := end.Add(-time.Duration(sec * float64(time.Second)))
				seq := tr.add("dod.build", strconv.FormatInt(m.epochNo.Load(), 10), int(m.cur[i].Load()), start, end, "")
				m.bmu.Lock()
				m.builds[i] = append(m.builds[i], seq)
				m.bmu.Unlock()
			})
		}
	}
	return m, nil
}

// stop shuts the market down and waits for it.
func (m *mkt) stop() error {
	if m.srv != nil {
		m.srv.Close()
	}
	if m.fed != nil {
		m.fed.Stop()
		return nil
	}
	m.engines[0].Stop()
	if m.wal != nil {
		return m.wal.Close()
	}
	return nil
}

func (m *mkt) register(name string, funds float64) (string, error) {
	m.funds += ledger.FromFloat(funds)
	switch {
	case m.client != nil:
		return m.client.RegisterAsync(name, funds)
	case m.fed != nil:
		return m.fed.SubmitRegister(name, funds)
	}
	return m.engines[0].SubmitRegister(name, funds)
}

// request builds the want and WTP-function of a request op.
func (m *mkt) request(o op) (dod.Want, *wtp.Function) {
	g := m.s.groups[o.group]
	return dod.Want{Columns: g.cols}, &wtp.Function{
		Buyer: o.buyer,
		Task:  wtp.CoverageTask{Columns: g.cols, WantRows: g.wantRows},
		Curve: []wtp.CurvePoint{{MinSatisfaction: minSatisfied, Price: offerPrice}},
	}
}

// submit sends one op through the market's entry point and returns its
// ticket. The call is timed as a child span of the request's loadgen.send.
func (m *mkt) submit(o op, parent int) (string, error) {
	start := time.Now()
	var tk, name string
	var err error
	switch {
	case o.share != nil:
		d := o.share
		name = "engine.submit_share"
		switch {
		case m.client != nil:
			name = "dmms.post_dataset"
			tk, err = m.client.ShareDatasetAsync(d.seller, d.id, d.rel, string(license.Open))
		case m.fed != nil:
			tk, err = m.fed.SubmitShare(d.seller, catalog.DatasetID(d.id), d.rel,
				wtp.DatasetMeta{Dataset: d.id, HasProvenance: true}, license.Terms{Kind: license.Open})
		default:
			tk, err = m.engines[0].SubmitShare(d.seller, catalog.DatasetID(d.id), d.rel,
				wtp.DatasetMeta{Dataset: d.id, HasProvenance: true}, license.Terms{Kind: license.Open})
		}
	case m.client != nil:
		name = "dmms.post_request"
		g := m.s.groups[o.group]
		tk, err = m.client.SubmitRequestAsync(dmms.RequestReq{Buyer: o.buyer, Columns: g.cols,
			Task:  dmms.TaskSpec{Kind: "coverage", WantRows: g.wantRows},
			Curve: []dmms.CurvePointSpec{{MinSatisfaction: minSatisfied, Price: offerPrice}}})
	default:
		name = "engine.submit"
		want, fn := m.request(o)
		if m.fed != nil {
			tk, err = m.fed.SubmitRequest(want, fn)
		} else {
			tk, err = m.engines[0].SubmitRequest(want, fn)
		}
	}
	note := ""
	if err != nil {
		note = "error"
	}
	m.tr.add(name, tk, parent, start, time.Now(), note)
	return tk, err
}

// ticket reads a submission's state in-process.
func (m *mkt) ticket(id string) (engine.Ticket, bool) {
	if m.fed != nil {
		return m.fed.Ticket(id)
	}
	return m.engines[0].Ticket(id)
}

// key maps an engine-local ticket seen in engine i's event log to the
// ticket its submitter was handed.
func (m *mkt) key(i int, ticket string) string {
	if m.fed != nil {
		return federation.ShardID(i, ticket)
	}
	return ticket
}

// epochRec is what one engine epoch did, recorded by the traced run.
type epochRec struct {
	seq     int    // its span
	shard   int    // engine index
	epoch   uint64 // the engine's own epoch number
	batch   uint64 // submissions applied or failed
	pending int64  // intake depth when it began
}

// epoch runs one epoch the way the gateway's ticker would: every shard's
// TriggerEpoch (concurrently on a federation), then the coordinator's round.
func (m *mkt) epoch() {
	n := m.epochNo.Add(1)
	id := strconv.FormatInt(n, 10)
	if m.fed == nil {
		m.engineEpoch(0, id, "engine.epoch", 0)
		return
	}
	fseq := m.tr.begin("federation.epoch", id, 0, time.Now())
	var wg sync.WaitGroup
	for i := range m.engines {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m.engineEpoch(i, id, "federation.shard_epoch", fseq)
		}(i)
	}
	wg.Wait()
	cseq := m.tr.begin("federation.coord_round", id, fseq, time.Now())
	m.fed.CoordRound()
	m.tr.finish(cseq, time.Now())
	m.tr.finish(fseq, time.Now())
}

// engineEpoch triggers one engine's epoch. Traced, it brackets the call in
// a span and places the price stage (the Stats.PriceMillis delta) as a
// child holding the epoch's inline builds.
func (m *mkt) engineEpoch(i int, id, name string, parent int) {
	eng := m.engines[i]
	if m.tr == nil {
		eng.TriggerEpoch()
		return
	}
	before := eng.Stats()
	from := eng.Log().LastSeq()
	start := time.Now()
	seq := m.tr.begin(name, id, parent, start)
	m.cur[i].Store(int64(seq))
	ep, _ := eng.TriggerEpoch()
	end := time.Now()
	m.tr.finish(seq, end)
	after := eng.Stats()
	batch := (after.Applied + after.Failed) - (before.Applied + before.Failed)
	m.tr.update(seq, func(sp *Span) { sp.Note = fmt.Sprintf("shard=%d epoch=%d batch=%d", i, ep, batch) })

	m.bmu.Lock()
	builds := m.builds[i]
	m.builds[i] = nil
	m.erecs = append(m.erecs, epochRec{seq: seq, shard: i, epoch: ep, batch: batch, pending: before.Pending})
	m.bmu.Unlock()
	priceMS := after.PriceMillis - before.PriceMillis
	if priceMS <= 0 {
		return
	}
	// The price stage ends where the round's outcome starts to be
	// published: the epoch's first record appended after the round.
	pEnd := end
	for _, ev := range eng.Log().Since(from) {
		switch ev.Kind {
		case engine.EventRequestAged, engine.EventTxSettled, engine.EventRequestUnmet, engine.EventEpochEnd:
			pEnd = ev.At
		default:
			continue
		}
		break
	}
	pStart := pEnd.Add(-time.Duration(priceMS * float64(time.Millisecond)))
	if pStart.Before(start) {
		pStart = start
	}
	pseq := m.tr.add("arbiter.price", id, seq, pStart, pEnd, strconv.FormatFloat(priceMS, 'f', 4, 64))
	// Builds run inline in the price stage.
	for _, b := range builds {
		m.tr.update(b, func(sp *Span) { sp.Parent = pseq })
	}
}

// walBytes sums the size of the WAL's segment files.
func (m *mkt) walBytes() int64 {
	if m.walDir == "" {
		return 0
	}
	var total int64
	ents, _ := os.ReadDir(m.walDir)
	for _, e := range ents {
		if info, err := e.Info(); err == nil && strings.HasSuffix(e.Name(), ".seg") {
			total += info.Size()
		}
	}
	return total
}
