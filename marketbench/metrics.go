package main

import (
	"fmt"
	"maps"
	"time"
)

// figures are a pass's end-to-end numbers, from raw samples.
type figures struct {
	settle, share, xshard, late sample
	satisfaction                sample
	sustained                   float64 // matches per second, saturate stage
	attempted, failed           int
	settled                     int // shard-local requests settled
	xsettled                    int // spanning requests settled
	reasons                     map[string]int
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// check summarizes the pass's records and runs the record-level gates.
func (p *pass) check() {
	f, s := p.f, p.s
	short, badShare := 0, 0
	for _, r := range p.recs {
		if r.state != stOK {
			if r.share {
				badShare++
			}
			continue
		}
		if !r.share && !r.xshard && r.srcs < s.minSources {
			short++
		}
	}
	if short > 0 {
		p.fail("%d settlements list fewer than %d source datasets", short, s.minSources)
	}
	if badShare > 0 {
		p.fail("%d shares yielded no dataset-shared event", badShare)
	}
	// The engines' own counters must agree with what was observed.
	if got := p.c1.matched - p.c0.matched; got != uint64(f.settled) {
		p.fail("engines matched %d timed requests, observers saw %d settle", got, f.settled)
	}
	if s.shards > 0 {
		if got := p.c1.committed - p.c0.committed; got != uint64(f.xsettled) {
			p.fail("coordinator committed %d cross-shard transactions, %d spanning wants settled", got, f.xsettled)
		}
		if a := p.c1.aborted - p.c0.aborted; a != 0 {
			p.fail("coordinator aborted %d cross-shard transactions", a)
		}
	}
	for reason, n := range f.reasons {
		if reason == "" {
			p.fail("%d failed submissions carry no reason", n)
		}
	}
}

// fig computes the end-to-end figures from the records.
func (p *pass) fig() *figures {
	f := &figures{reasons: map[string]int{}}
	f.settle.name, f.share.name, f.xshard.name, f.late.name = "settle_ms", "share_ms", "xshard_settle_ms", "late_ms"
	// The saturate stage's work is fixed, so its sustained rate is its
	// matches over the time the market took for them: from the stage's
	// start to its last settlement, ramp and last partial batch included.
	// Matches settle in lumps, one per epoch, and a span trimmed at lumps
	// moves by a lump's worth from run to run.
	var last time.Time
	stageMatches := 0
	for _, r := range p.recs {
		f.attempted++
		switch r.state {
		case stUnsettled:
			f.failed++
			f.reasons["unsettled at run end"]++
			continue
		case stFailed:
			f.failed++
			reason := r.err
			if len(reason) > 80 {
				reason = reason[:80]
			}
			f.reasons[reason]++
			continue
		}
		lat := ms(r.done.Sub(r.due))
		if r.paced {
			f.late.add(ms(r.late))
			switch {
			case r.share:
				f.share.add(lat)
			case r.xshard:
				f.xshard.add(lat)
			default:
				f.settle.add(lat)
			}
		}
		if r.share {
			continue
		}
		if r.xshard {
			f.xsettled++
		} else {
			f.settled++
			f.satisfaction.add(r.sat)
		}
		if r.paced {
			continue
		}
		stageMatches++
		if r.done.After(last) {
			last = r.done
		}
	}
	if last.After(p.sat[0]) {
		f.sustained = float64(stageMatches) / last.Sub(p.sat[0]).Seconds()
	}
	return f
}

func (p *pass) fail(format string, args ...any) {
	p.gates = append(p.gates, fmt.Sprintf(format, args...))
}

// checkMarket runs the market-level gates on the stopped market.
func (p *pass) checkMarket() {
	m := p.m
	var supply int64
	for i, e := range m.engines {
		if !e.Settlements().Conserved() {
			p.fail("engine %d: settlement book not conserved", i)
		}
		l := m.plats[i].Arbiter.Ledger
		if bad := l.VerifyChain(); bad != -1 {
			p.fail("engine %d: audit chain broken at entry %d", i, bad)
		}
		supply += int64(l.TotalSupply())
	}
	if supply != int64(m.funds) {
		p.fail("ledger total supply %d != funds registered %d", supply, m.funds)
	}
}

// layerMetrics derives the per-layer figures of a traced pass from its spans
// and the counters the timed stages moved.
func (p *pass) layerMetrics() map[string]float64 {
	m, s := p.m, p.s
	all := m.tr.snapshot()
	self := selfTimes(all)
	from := p.pacedAt.Sub(m.tr.t0).Nanoseconds()
	window := p.drained.Sub(p.pacedAt).Seconds()
	byName := map[string]*sample{}
	selfSum := map[string]float64{}
	get := func(name string) *sample {
		if byName[name] == nil {
			byName[name] = &sample{name: name}
		}
		return byName[name]
	}
	epochName := "engine.epoch"
	if m.fed != nil {
		epochName = "federation.shard_epoch"
	}
	inWindow := map[int]bool{}
	walEnd := &sample{name: "wal.epoch_end_persist_ms"}
	busy := make([]float64, len(m.engines))
	nonOK := 0
	for i, sp := range all {
		if sp.Start < from {
			continue
		}
		inWindow[sp.Seq] = true
		d := float64(sp.dur()) / 1e6
		selfSum[sp.Name] += float64(self[i]) / 1e6
		switch sp.Name {
		case "loadgen.send", "settle":
		case "engine.submit", "dmms.post_request":
			if sp.Note != "" {
				nonOK++
			}
			get(sp.Name).add(d)
		case "wal.persist":
			get(sp.Name).add(d)
			if sp.Note == "epoch-end" {
				walEnd.add(d)
			}
		default:
			get(sp.Name).add(d)
		}
	}
	var epochs []epochRec
	m.bmu.Lock()
	for _, e := range m.erecs {
		if inWindow[e.seq] {
			epochs = append(epochs, e)
		}
	}
	m.bmu.Unlock()
	p.t.mu.Lock()
	shares := maps.Clone(p.t.shares)
	p.t.mu.Unlock()
	nEpochs := float64(len(epochs))
	var batch, pendMax float64
	shareSelf, sharesApplied := 0.0, 0
	for _, e := range epochs {
		batch += float64(e.batch)
		pendMax = max(pendMax, float64(e.pending))
		busy[e.shard] += float64(all[e.seq-1].dur()) / 1e9
		if n := shares[[2]uint64{uint64(e.shard), e.epoch}]; n > 0 {
			shareSelf += float64(self[e.seq-1]) / 1e6
			sharesApplied += n
		}
	}
	f := p.f
	matches := float64(f.settled + f.xsettled)
	c0, c1 := p.c0, p.c1
	builds := float64(c1.cache.Builds - c0.cache.Builds)
	lookups := float64((c1.cache.Hits + c1.cache.Stale + c1.cache.Misses) - (c0.cache.Hits + c0.cache.Stale + c0.cache.Misses))
	evals := float64(c1.alloc.Evals - c0.alloc.Evals)
	memo := float64(c1.alloc.MemoHits - c0.alloc.MemoHits)

	out := map[string]float64{}
	q := func(name, metric string, qs float64, scale float64) {
		v, eff := get(name).tail(qs)
		out[metric] = v * scale
		if eff < qs && get(name).n() > 0 {
			fmt.Printf("note: %s reports p%.1f (n=%d): too few samples for p%g\n", metric, eff*100, get(name).n(), qs*100)
		}
	}
	lateP99, _ := f.late.tail(0.99)
	out["loadgen.late_p99_ms"] = lateP99
	out["loadgen.offered"] = float64(p.offered)
	q("dmms.post_request", "dmms.post_request_ms.p50", 0.5, 1)
	q("dmms.post_request", "dmms.post_request_ms.p99", 0.99, 1)
	out["dmms.non_2xx"] = 0
	if m.client != nil {
		out["dmms.non_2xx"] = float64(nonOK)
	}
	q("engine.submit", "engine.submit_us.p50", 0.5, 1000)
	q("engine.submit", "engine.submit_us.p99", 0.99, 1000)
	out["engine.pending_max"] = pendMax
	out["engine.shed"] = float64(c1.shed - c0.shed)
	out["engine.epochs"] = nEpochs
	out["engine.batch_mean"] = ratio(batch, nEpochs)
	q(epochName, "engine.epoch_ms.p50", 0.5, 1)
	q(epochName, "engine.epoch_ms.p99", 0.99, 1)
	out["engine.epoch_self_ms_per_epoch"] = ratio(selfSum[epochName], nEpochs)
	busyAll := 0.0
	for _, b := range busy {
		busyAll += b
	}
	out["engine.busy_ratio"] = ratio(busyAll, window*float64(len(busy)))

	out["index.apply_ms_per_share"] = ratio(shareSelf, float64(sharesApplied))
	var datasets, edges int
	for _, pl := range m.plats {
		ix := pl.Arbiter.Discovery().Index()
		datasets += len(ix.Datasets())
		edges += ix.NumEdges()
	}
	out["index.datasets"] = float64(datasets)
	out["index.edges"] = float64(edges)

	out["dod.builds_per_epoch"] = ratio(builds, nEpochs)
	q("dod.build", "dod.build_ms.p50", 0.5, 1)
	q("dod.build", "dod.build_ms.p99", 0.99, 1)
	out["dod.build_ms_per_epoch"] = ratio(get("dod.build").sum(), nEpochs)
	out["dod.cache_hit_ratio"] = ratio(float64(c1.cache.Hits-c0.cache.Hits), lookups)
	out["dod.stale_per_epoch"] = ratio(float64(c1.cache.Stale-c0.cache.Stale), nEpochs)
	out["dod.subjoin_hits_per_build"] = ratio(float64(c1.cache.SubJoinHits-c0.cache.SubJoinHits), builds)

	out["relation.rows_streamed_per_match"] = ratio(float64(c1.rows-c0.rows), matches)
	out["relation.materializations_per_build"] = ratio(float64(c1.mats-c0.mats), builds)

	out["arbiter.price_self_ms_per_epoch"] = ratio(selfSum["arbiter.price"], nEpochs)

	out["market.evals_per_match"] = ratio(evals, matches)
	out["market.memo_hit_ratio"] = ratio(memo, evals+memo)
	out["market.sampled_runs"] = float64(c1.alloc.SampledRuns - c0.alloc.SampledRuns)

	q("wal.persist", "wal.persist_us.p50", 0.5, 1000)
	q("wal.persist", "wal.persist_us.p99", 0.99, 1000)
	v, _ := walEnd.tail(0.99)
	out["wal.epoch_end_persist_ms.p99"] = v
	out["wal.persist_ms_per_epoch"] = ratio(get("wal.persist").sum(), nEpochs)
	out["wal.bytes_per_event"] = 0
	if m.wal != nil {
		out["wal.bytes_per_event"] = ratio(float64(m.walBytes()), float64(m.wal.LastSeq()))
	}

	entries, allMatches := 0, 0.0
	for i, pl := range m.plats {
		entries += len(pl.Arbiter.Ledger.Log())
		allMatches += float64(m.engines[i].StatsLite().Matched)
	}
	allMatches += float64(c1.committed)
	out["ledger.audit_entries_per_match"] = ratio(float64(entries), allMatches)

	q("federation.coord_round", "federation.coord_round_ms.p50", 0.5, 1)
	q("federation.coord_round", "federation.coord_round_ms.p99", 0.99, 1)
	out["federation.coord_ms_per_xshard"] = ratio(get("federation.coord_round").sum(), float64(f.xsettled))
	out["federation.shard_epoch_ms.p99"] = 0
	out["federation.shard_busy_skew"] = 0
	if m.fed != nil {
		q("federation.shard_epoch", "federation.shard_epoch_ms.p99", 0.99, 1)
		lo, hi := busy[0], busy[0]
		for _, b := range busy {
			lo, hi = min(lo, b), max(hi, b)
		}
		out["federation.shard_busy_skew"] = ratio(hi, lo)
	}
	out["federation.xtx_committed"] = float64(c1.committed - c0.committed)
	out["federation.xtx_aborted"] = float64(c1.aborted - c0.aborted)

	out["runtime.alloc_mb_per_1k_matches"] = ratio(float64(c1.mem.TotalAlloc-c0.mem.TotalAlloc)/(1<<20), matches/1000)
	out["runtime.gc_cycles"] = float64(c1.mem.NumGC - c0.mem.NumGC)
	out["runtime.gc_pause_ms"] = float64(c1.mem.PauseTotalNs-c0.mem.PauseTotalNs) / 1e6

	// Where the epoch time went, for the printed breakdown.
	if nEpochs > 0 {
		epochMS := get(epochName).sum()
		fmt.Printf("epoch time (%s, %d epochs, %.1f ms): self %.1f%%, dod.build %.1f%%, arbiter.price self %.1f%%, wal.persist %.1f%%\n",
			s.name, len(epochs), epochMS, 100*ratio(selfSum[epochName], epochMS), 100*ratio(get("dod.build").sum(), epochMS),
			100*ratio(selfSum["arbiter.price"], epochMS), 100*ratio(get("wal.persist").sum(), epochMS))
	}
	if fedMS := get("federation.epoch").sum(); fedMS > 0 {
		fmt.Printf("federation epoch time (%.1f ms): federation.coord_round %.1f%%, the shard epochs before it the rest\n",
			fedMS, 100*ratio(get("federation.coord_round").sum(), fedMS))
	}
	return out
}
