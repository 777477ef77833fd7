// Package federation shards the market itself.
//
// A single arbiter — one platform, one engine, one WAL — serializes every
// epoch. Federation runs N of them side by side and puts a router in front:
//
//	                        ┌────────────────────────────┐
//	 SubmitRegister ───────▶│          router            │
//	 SubmitShare    ───────▶│  HomeOf(participant) hash  │
//	 SubmitRequest  ───────▶│  + column-coverage index   │
//	                        └───┬─────────┬──────────┬───┘
//	                            │         │          │ spans shards?
//	                       ┌────▼───┐ ┌───▼────┐ ┌───▼──────────┐
//	                       │shard 0 │ │shard 1 │ │ coordinator  │
//	                       │engine  │ │engine  │ │ queue + 2PC  │
//	                       │platform│ │platform│ └───┬──────┬───┘
//	                       │WAL dir │ │WAL dir │     │      │
//	                       └────────┘ └────────┘  coord.log │
//	                         parallel epochs         escrow legs as
//	                         per-shard snapshots     shard WAL events
//
//	// Each shard is a complete market: its own catalog slice, ledger, event
//	// log, WAL directory and snapshot lineage. Shards never talk to each
//	// other — only the coordinator touches more than one.
//
// # Sharding
//
// Participants hash to a home shard (FNV-1a of the name, the same hash the
// engine uses for intake queues). A seller's datasets live on the seller's
// home shard; a buyer's funds and requests live on the buyer's. Epochs run
// per shard, concurrently — the perf point of the whole layer: N shards
// drain, apply, build and match in parallel, and `-shards 1` is exactly the
// single-arbiter market (same hash, same order, same bytes, bare IDs, and
// its WAL lineage directly in the market directory).
//
// # Routing
//
// The router keeps a column-coverage index (column name → shards whose
// catalogs carry it). A want whose columns all resolve on the buyer's home
// shard is an ordinary home-shard request. A want with some column missing
// at home but present on another shard "spans" — no single shard can clear
// it — and goes to the cross-shard coordinator instead. Columns unknown
// everywhere stay home: local transforms may yet derive them, and the home
// shard's unmet-demand signals should see them.
//
// # Cross-shard settlement (escrow-style 2PC)
//
// The coordinator prices spanning wants against one cached mirror: a
// private platform holding every shard's datasets, shared in (shard,
// share) order. It is rebuilt from scratch — never appended to, since share
// order fixes index order, tie-breaks and which copy of a colliding ID wins
// — only when some shard's catalog version moved since the last build, and
// the versions are read before the catalogs, so a share racing a build
// forces the next round to rebuild. Each want prices on its own fork of
// the mirror (arbiter.Fork): the fork shares the catalog, index, DoD engine
// and candidate cache, but files the request, issues grants and settles on
// its own ledger, funded with the buyer's real home-shard balance, so the
// mirror is never changed by pricing and a repeated want is a cache hit.
// The outcome equals pricing on a fresh platform built for the want alone.
// Dataset IDs are unique market-wide: the router maps each ID to the shard
// holding or reserving it, and SubmitShare refuses another shard's ID with
// ErrDatasetIDTaken (a reservation is held until restart, even if its share
// later fails). The coordinator then settles the winning mashup with a
// two-phase commit whose participant legs are ordinary engine events in
// each shard's WAL, and whose decisions live in the coordinator's own log
// (coord.log, JSON lines, fsync per append):
//
//	begin(coord) → prepare: home shard escrows the price (xtx-prepared)
//	→ decide(coord) → commit home: escrow pays arbiter cut + local seller
//	cuts, remote cuts withdrawn (xtx-committed, role=home) → commit
//	remotes: each remote shard deposits its sellers' cuts (xtx-committed,
//	role=remote) → want-done(coord) → done(coord)
//
// The withdraw/deposit pair moves value between shard ledgers while the
// federation-wide total supply stays conserved — micro-unit exact, because
// both sides sum the identical per-cut conversions. Every leg is
// idempotent, so recovery re-drives decided transactions safely: undecided
// at boot → presumed abort (escrow refunded, want retried under a fresh
// xid); decided-commit → re-drive all legs; decided-abort → finish the
// abort. No coordinator state exists outside the two logs except the
// mirror, which is derived: a restarted coordinator rebuilds it on its
// first spanning want.
//
// # Snapshots
//
// Each shard snapshots and prunes independently (same lineage rules as a
// single market). Market.SnapshotAll takes the coordinator mutex first, so
// no shard is ever captured mid-2PC; the engine additionally refuses to
// snapshot while any escrow is in flight, making the invariant local too.
//
// # Observability
//
// All shards share one registry: unlabeled histogram, counter and WAL
// families aggregate across shards by construction, per-shard views carry a
// `shard` label under dedicated engine_shard_* names (only with more than
// one shard), and the market registers the sampled families once over all
// its shards plus the coordinator (engine.RegisterSampledMetrics). With
// more than one shard, federation_coord_mirror_builds_total counts mirror
// builds, so an operator can see one build per catalog change rather than
// one per spanning want.
package federation
