package federation

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"sync"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/dod"
	"repro/internal/relation"
)

// HomeOf maps a participant name to its home shard: the shard that owns the
// participant's ledger account and intake. It is the same FNV-1a hash the
// engine uses for intake queues, so a `-shards 1` federation routes exactly
// like a bare engine.
func HomeOf(participant string, shards int) int {
	if shards <= 1 {
		return 0
	}
	h := fnv.New32a()
	_, _ = h.Write([]byte(participant))
	return int(h.Sum32() % uint32(shards))
}

// shardTicket prefixes a shard-local ticket or transaction ID with its shard
// ("s2:sub-000017"), making IDs unique at the federation surface — every
// shard numbers its own tickets from 1.
func shardTicket(shard int, id string) string {
	return fmt.Sprintf("s%d:%s", shard, id)
}

// ShardID is the exported form of the multi-shard ID scheme: it prefixes a
// shard-local ticket or transaction ID with its shard ("s2:tx-000017"). A
// one-shard market hands out bare IDs instead; Market.ShardID picks the
// right form for any shard count.
func ShardID(shard int, id string) string { return shardTicket(shard, id) }

// splitShardID parses a "s<i>:<id>" federation ID back into its shard and
// local form. ok is false for coordinator tickets ("x:...") and bare IDs.
func splitShardID(id string) (shard int, local string, ok bool) {
	if len(id) < 3 || id[0] != 's' {
		return 0, "", false
	}
	colon := strings.IndexByte(id, ':')
	if colon < 2 {
		return 0, "", false
	}
	n, err := strconv.Atoi(id[1:colon])
	if err != nil || n < 0 {
		return 0, "", false
	}
	return n, id[colon+1:], true
}

// router is the federation's column-coverage index: which shards hold a
// dataset carrying each column name. It decides, per want, whether the
// buyer's home shard can clear it alone or the want must go to the
// cross-shard coordinator. The index is advisory routing state, not ground
// truth — it is rebuilt from the shard catalogs at Open and updated
// optimistically at share time (a share applies at its shard's next epoch;
// routing a want by a column that is still in intake just means the want
// waits open at its home shard a little longer, exactly like a single
// market). Transform-derived columns are invisible here, so wants for them
// stay at the home shard, where the DoD engine's transforms live.
//
// With more than one shard the router also owns the federation-wide dataset
// ID space: ids maps every dataset ID to the shard that holds or has
// reserved it, so two shards can never both hold one ID (see reserveID).
type router struct {
	shards int

	mu   sync.RWMutex
	cols map[string]map[int]bool   // column name -> shards carrying it
	ids  map[catalog.DatasetID]int // dataset ID -> shard holding or reserving it
}

func newRouter(shards int) *router {
	return &router{shards: shards, cols: map[string]map[int]bool{}, ids: map[catalog.DatasetID]int{}}
}

// reserveID claims a dataset ID for a shard before its share is submitted.
// An ID another shard holds or has reserved is refused with
// ErrDatasetIDTaken; the check and the claim happen under one lock, so of
// two concurrent shares from different shards exactly one wins. A claim by
// the shard already holding the ID passes: same-shard duplicates fail at the
// shard's epoch, exactly as on a single arbiter. A reservation is never
// released: if the share later fails (at intake or at its epoch), the ID
// stays reserved for its shard until restart, when Open re-seeds the map
// from what the catalogs actually hold. One shard needs no reservations.
func (r *router) reserveID(id catalog.DatasetID, shard int) error {
	if r.shards <= 1 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if owner, ok := r.ids[id]; ok && owner != shard {
		return fmt.Errorf("%w: %q is held by shard %d", ErrDatasetIDTaken, id, owner)
	}
	r.ids[id] = shard
	return nil
}

// addColumns records that a shard holds a dataset with these columns.
func (r *router) addColumns(shard int, names []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, n := range names {
		set := r.cols[n]
		if set == nil {
			set = map[int]bool{}
			r.cols[n] = set
		}
		set[shard] = true
	}
}

// addRelation indexes a shared relation's schema for a shard.
func (r *router) addRelation(shard int, rel *relation.Relation) {
	if rel == nil {
		return
	}
	r.addColumns(shard, rel.Schema.Names())
}

// seedFromShard rebuilds a shard's slice of the index and of the ID map
// from its catalog (used at Open, after recovery replayed the shard's WAL).
// Shards seed in index order, so an ID two shards already hold — state
// written before shares were checked — stays with the lower shard, the copy
// the coordinator's mirror keeps.
func (r *router) seedFromShard(shard int, states []core.DatasetState) {
	for _, d := range states {
		r.addRelation(shard, d.Relation)
	}
	if r.shards <= 1 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, d := range states {
		if _, ok := r.ids[catalog.DatasetID(d.ID)]; !ok {
			r.ids[catalog.DatasetID(d.ID)] = shard
		}
	}
}

// colOnShard reports whether col (or one of its aliases) is indexed on the
// shard.
func (r *router) colOnShard(col string, aliases []string, shard int) bool {
	if r.cols[col][shard] {
		return true
	}
	for _, a := range aliases {
		if r.cols[a][shard] {
			return true
		}
	}
	return false
}

// colAnywhere reports whether col (or an alias) is indexed on any shard
// other than home.
func (r *router) colElsewhere(col string, aliases []string, home int) bool {
	for s := range r.cols[col] {
		if s != home {
			return true
		}
	}
	for _, a := range aliases {
		for s := range r.cols[a] {
			if s != home {
				return true
			}
		}
	}
	return false
}

// spans decides whether a want must go to the cross-shard coordinator: true
// when some wanted column is missing from the home shard's catalog but
// present on another shard. Wants whose missing columns are unknown
// everywhere stay home — local transforms may yet derive them, and keeping
// them at the home shard preserves its unmet-demand signals.
func (r *router) spans(want dod.Want, home int) bool {
	if r.shards <= 1 {
		return false
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, col := range want.Columns {
		aliases := want.Aliases[col]
		if r.colOnShard(col, aliases, home) {
			continue
		}
		if r.colElsewhere(col, aliases, home) {
			return true
		}
	}
	return false
}
