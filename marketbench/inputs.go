package main

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/federation"
	"repro/internal/relation"
	"repro/internal/workload"
)

// dataset is one share: a seller's relation under a catalog ID.
type dataset struct {
	seller string
	id     string
	rel    *relation.Relation
}

// group is one want group: the wanted columns, the buyers that ask for
// them, and its draw weight. xshard marks groups whose columns live on more
// than one shard.
type group struct {
	cols     []string
	wantRows int
	buyers   []string
	weight   float64
	xshard   bool
}

// op is one submission of the generated input sequence: a share when share
// is non-nil, otherwise a request of the given group by the given buyer.
type op struct {
	share *dataset
	group int
	buyer string
}

// spec is everything one workload feeds the market, generated from a seed.
// The market only ever sees what is in here.
type spec struct {
	name string
	seed int64

	rate   float64 // paced-stage arrivals per second
	window int     // saturate-stage unsettled requests per client
	// satRef sizes the saturate stage's fixed work: submissions per
	// planned second, about what the market sustained when it was set.
	satRef     float64
	pacedShare float64 // share of --seconds spent in the paced stage

	shards   int  // 0 = bare engine, 2 = federation
	durable  bool // WAL with fsync per epoch
	http     bool // drive the dmms HTTP surface
	adaptive bool // AdaptiveShapley allocator (dmgateway -allocator-exact-max 12)

	buyers   []string  // registered with buyerFunds each
	sellers  []string  // owners of the catalog and of fresh shares
	catalog  []dataset // seeded during setup
	groups   []group
	cum      []float64 // cumulative group weights
	shareGap int       // one fresh share per shareGap ops (0 = none)
	fresh    func(rng *rand.Rand, n int) dataset
	// minSources is the fewest source datasets every settlement must list.
	minSources int
}

const (
	buyerFunds   = 1e12
	offerPrice   = 150 // posted-baseline settles any offer >= 100 at 100
	minSatisfied = 0.5
)

var workloads = []string{"join-build", "catalog-churn", "gateway", "cross-shard"}

// newSpec generates the inputs of a named workload from a seed.
func newSpec(name string, seed int64) (*spec, error) {
	rng := rand.New(rand.NewSource(seed))
	var s *spec
	switch name {
	case "join-build":
		s = joinBuild(rng)
	case "catalog-churn":
		s = catalogChurn(rng)
	case "gateway":
		s = gateway(rng)
	case "cross-shard":
		s = crossShard(rng)
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloads)
	}
	s.name, s.seed = name, seed
	total := 0.0
	for _, g := range s.groups {
		total += g.weight
		s.cum = append(s.cum, total)
	}
	return s, nil
}

// zipf returns n weights proportional to 1/(rank+1): a fixed skew.
func zipf(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / float64(i+1)
	}
	return w
}

func names(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%02d", prefix, i)
	}
	return out
}

// joinBuild: 12 bases from 12 sellers share an integer key k; each adds its
// own value column. Wants pair (or triple) value columns of different bases,
// so every match joins and splits revenue across sellers.
func joinBuild(rng *rand.Rand) *spec {
	const (
		bases    = 12
		keySpace = 3000
		keep     = 0.5 // ~1500 rows per base; two bases share half their keys
	)
	s := &spec{rate: 600, window: 128, satRef: 3400, pacedShare: 0.55, adaptive: true,
		buyers: names("jb-buyer", 16), sellers: names("jb-seller", bases),
		shareGap: 1024, minSources: 2}
	for b := 0; b < bases; b++ {
		id := fmt.Sprintf("jb/base%02d", b)
		r := relation.New(id, relation.NewSchema(
			relation.Col("k", relation.KindInt), relation.Col(fmt.Sprintf("v%02d", b), relation.KindFloat)))
		// Which keys a base holds is fixed, so every seed joins the same
		// shapes; the seed draws the values and the request sequence.
		keys := rand.New(rand.NewSource(int64(b) + 1))
		for k := 0; k < keySpace; k++ {
			if keys.Float64() < keep {
				r.MustAppend(relation.Int(int64(k)), relation.Float(rng.NormFloat64()))
			}
		}
		s.catalog = append(s.catalog, dataset{seller: s.sellers[b], id: id, rel: r})
	}
	// A fixed list of pairs and triples (independent of the seed), weighted
	// by a fixed Zipf skew; only the draws are seeded.
	var sets [][]int
	for d := 1; len(sets) < 16; d++ {
		for a := 0; a < bases && len(sets) < 16; a += 2 {
			sets = append(sets, []int{a, (a + d) % bases})
		}
	}
	for t := 0; t < 4; t++ {
		sets = append(sets, []int{t, t + 3, t + 7})
	}
	// A milder skew than zipf's: the epoch after a fresh share rebuilds
	// every group its batch of 64 asks for, and with 1/rank the rare groups
	// were in it one time and not the next, so that epoch's length, and
	// settle_p99_ms with it, followed the draw.
	w := zipf(len(sets))
	for i := range w {
		w[i] = math.Sqrt(w[i])
	}
	for i, set := range sets {
		cols := []string{"k"}
		for _, b := range set {
			cols = append(cols, fmt.Sprintf("v%02d", b))
		}
		s.groups = append(s.groups, group{cols: cols, wantRows: 800 / (len(set) - 1), buyers: s.buyers, weight: w[i]})
	}
	// Fresh shares carry their own columns and values, so they bump the
	// catalog version without joining into the bases' graph.
	s.fresh = func(rng *rand.Rand, n int) dataset {
		id := fmt.Sprintf("jb/fresh%05d", n)
		r := relation.New(id, relation.NewSchema(
			relation.Col(fmt.Sprintf("note%05d", n), relation.KindString),
			relation.Col(fmt.Sprintf("score%05d", n), relation.KindFloat)))
		for i := 0; i < 20; i++ {
			r.MustAppend(relation.String_(fmt.Sprintf("n%d-%d", n, i)), relation.Float(rng.Float64()))
		}
		return dataset{seller: s.sellers[n%bases], id: id, rel: r}
	}
	return s
}

// catalogChurn: a few hundred lake tables from many sellers, then a mix of
// one fresh lake table per four submissions and single-table coverage wants
// over columns already in the lake.
func catalogChurn(rng *rand.Rand) *spec {
	const (
		tables  = 240
		rows    = 40
		sellers = 24
		wanted  = 16 // tables the wants draw from
	)
	s := &spec{rate: 150, window: 32, satRef: 280, pacedShare: 0.65, durable: true,
		buyers: names("cc-buyer", 16), sellers: names("cc-seller", sellers),
		shareGap: 4, minSources: 1}
	// The lake itself is fixed: which tables share a key cluster, and so the
	// join graph every share grows, is the same for every seed. The seed
	// draws the request sequence and the fresh tables' values.
	lake := workload.LakeTables(tables, rows, 1)
	for i, r := range lake {
		s.catalog = append(s.catalog, dataset{seller: s.sellers[i%sellers], id: "cc/" + r.Name, rel: r})
	}
	w := zipf(wanted)
	clusters := 1 + tables/10 // LakeTables' key clusters
	for i := 0; i < wanted; i++ {
		t := i * 37 % tables
		cols := []string{fmt.Sprintf("key_c%d", t%clusters), fmt.Sprintf("val_%d_a", t)}
		s.groups = append(s.groups, group{cols: cols, wantRows: 1, buyers: s.buyers, weight: w[i]})
	}
	// Fresh tables have LakeTables' shape and join its key clusters in turn,
	// so each one adds join edges and profiles the way a seeded table did.
	s.fresh = func(rng *rand.Rand, n int) dataset {
		i := tables + n
		cluster := n % clusters
		keys := rand.New(rand.NewSource(int64(i)))
		id := fmt.Sprintf("cc/fresh%05d", n)
		r := relation.New(id, relation.NewSchema(
			relation.Col(fmt.Sprintf("key_c%d", cluster), relation.KindInt),
			relation.Col(fmt.Sprintf("val_%d_a", i), relation.KindFloat),
			relation.Col(fmt.Sprintf("val_%d_b", i), relation.KindString)))
		for j := 0; j < rows; j++ {
			r.MustAppend(relation.Int(int64(cluster*100000+keys.Intn(rows*2))),
				relation.Float(rng.NormFloat64()),
				relation.String_(fmt.Sprintf("tok%d_%d", cluster, keys.Intn(50))))
		}
		return dataset{seller: s.sellers[n%sellers], id: id, rel: r}
	}
	return s
}

// gateway: 64 buyers, 4 single-seller datasets and a handful of coverage
// want groups over the HTTP surface; no shares during the run.
func gateway(rng *rand.Rand) *spec {
	const sets = 4
	s := &spec{rate: 1000, window: 128, satRef: 15000, pacedShare: 0.75, durable: true, http: true,
		buyers: names("gw-buyer", 64), sellers: names("gw-seller", sets), minSources: 1}
	for d := 0; d < sets; d++ {
		id := fmt.Sprintf("gw/set%d", d)
		r := relation.New(id, relation.NewSchema(
			relation.Col(fmt.Sprintf("g%d_key", d), relation.KindInt),
			relation.Col(fmt.Sprintf("g%d_x", d), relation.KindFloat),
			relation.Col(fmt.Sprintf("g%d_y", d), relation.KindFloat)))
		for i := 0; i < 50; i++ {
			r.MustAppend(relation.Int(int64(i)), relation.Float(rng.Float64()), relation.Float(rng.NormFloat64()))
		}
		s.catalog = append(s.catalog, dataset{seller: s.sellers[d], id: id, rel: r})
	}
	w := zipf(6)
	for g := 0; g < 6; g++ {
		d := g % sets
		col := "x"
		if g >= sets {
			col = "y"
		}
		cols := []string{fmt.Sprintf("g%d_key", d), fmt.Sprintf("g%d_%s", d, col)}
		s.groups = append(s.groups, group{cols: cols, wantRows: 1, buyers: s.buyers, weight: w[g]})
	}
	return s
}

// pinned brute-forces a participant name whose home is the given shard.
func pinned(prefix string, shard, shards int) string {
	for i := 0; ; i++ {
		n := fmt.Sprintf("%s%d", prefix, i)
		if federation.HomeOf(n, shards) == shard {
			return n
		}
	}
}

// crossShard: four districts pinned to two shards (district d on shard
// d%2), six bases each sharing the key a. Local wants join two bases of the
// buyer's district; about one in four pairs a base of the buyer's district
// with one of a district on the other shard and routes to the coordinator.
func crossShard(rng *rand.Rand) *spec {
	const (
		shards    = 2
		districts = 4
		bases     = 6
		rows      = 40
		perD      = 4 // buyers per district
	)
	s := &spec{rate: 250, window: 128, satRef: 800, pacedShare: 0.55, shards: shards, minSources: 2}
	buyers := make([][]string, districts)
	for d := 0; d < districts; d++ {
		for i := 0; i < perD; i++ {
			buyers[d] = append(buyers[d], pinned(fmt.Sprintf("xs-buyer%d-%d-", d, i), d%shards, shards))
		}
		s.buyers = append(s.buyers, buyers[d]...)
		for b := 0; b < bases; b++ {
			seller := pinned(fmt.Sprintf("xs-seller%d-%d-", d, b), d%shards, shards)
			id := fmt.Sprintf("xs/d%d/base%d", d, b)
			r := relation.New(id, relation.NewSchema(
				relation.Col("a", relation.KindInt), relation.Col(fmt.Sprintf("w%d_%d", d, b), relation.KindFloat)))
			for k := 0; k < rows; k++ {
				r.MustAppend(relation.Int(int64(k)), relation.Float(rng.NormFloat64()))
			}
			s.catalog = append(s.catalog, dataset{seller: seller, id: id, rel: r})
		}
	}
	for d := 0; d < districts; d++ {
		for b := 0; b < 3; b++ {
			local := []string{"a", fmt.Sprintf("w%d_%d", d, b), fmt.Sprintf("w%d_%d", d, b+3)}
			s.groups = append(s.groups, group{cols: local, wantRows: rows, buyers: buyers[d], weight: 1})
		}
		other := (d + 1) % districts // always the other shard's parity
		span := []string{"a", fmt.Sprintf("w%d_0", d), fmt.Sprintf("w%d_0", other)}
		s.groups = append(s.groups, group{cols: span, wantRows: rows, buyers: buyers[d], weight: 1, xshard: true})
	}
	return s
}

// opGen draws a deterministic op sequence from its own seeded stream.
type opGen struct {
	s      *spec
	rng    *rand.Rand
	n      int
	shares int
	lane   int // distinguishes fresh-share IDs across generators
	lanes  int
}

func (s *spec) ops(seed int64, lane, lanes int) *opGen {
	return &opGen{s: s, rng: rand.New(rand.NewSource(seed)), lane: lane, lanes: lanes}
}

func (g *opGen) next() op {
	g.n++
	if g.s.shareGap > 0 && g.n%g.s.shareGap == 0 {
		d := g.s.fresh(g.rng, g.shares*g.lanes+g.lane)
		g.shares++
		return op{share: &d}
	}
	x := g.rng.Float64() * g.s.cum[len(g.s.cum)-1]
	i := 0
	for i < len(g.s.cum)-1 && g.s.cum[i] <= x {
		i++
	}
	bs := g.s.groups[i].buyers
	return op{group: i, buyer: bs[g.rng.Intn(len(bs))]}
}

// poisson returns n arrival offsets (seconds) of a Poisson process of the
// given rate: exponential gaps drawn from a seeded stream.
func poisson(rng *rand.Rand, rate float64, n int) []float64 {
	out := make([]float64, n)
	t := 0.0
	for i := range out {
		t += -math.Log(1-rng.Float64()) / rate
		out[i] = t
	}
	return out
}

// mix derives an independent stream seed from the workload seed.
func mix(seed, stream int64) int64 {
	z := uint64(seed) + uint64(stream)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

func newRand(seed, stream int64) *rand.Rand { return rand.New(rand.NewSource(mix(seed, stream))) }

// passSeed derives pass k's seed from the workload seed. The catalog and
// want groups are the same in every pass; the paced schedule and the
// submission sequences are drawn afresh, so the median over a run's passes
// also evens out the draw (on join-build, which groups a rebuild epoch's
// batch asks for).
func passSeed(seed int64, k int) int64 { return mix(seed, 100+int64(k)) }
