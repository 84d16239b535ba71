package search

import (
	"fmt"
	"math"

	"qunits/internal/core"
)

// Online compaction at the engine level: the copy-on-write epoch swap
// over ir.ShardedIndex.Compacted.
//
// Lock protocol. Three locks are in play, always acquired in this
// order:
//
//	indexMu  serializes the index-STRUCTURE writers against each other:
//	         AddInstance, RemoveInstance, and Compact. Held across the
//	         whole compaction build, so no instance mutation can land on
//	         the old index after the rebuild read it (which would be
//	         silently lost in the swap).
//	mu       the engine RWMutex searches already take. Compact holds it
//	         only twice, briefly: a read-lock to capture the current
//	         index pointer, and a write-lock for the single pointer
//	         swap. The build itself runs with NO engine lock held —
//	         searches keep draining on the old shards the entire time,
//	         which is the "no full-duration write lock" guarantee the
//	         churn-soak test enforces.
//
// ApplyFeedback deliberately does not take indexMu: it mutates
// utilities, which live on the shared instances, not in the index —
// a compaction pass neither reads nor copies them.
//
// Because compaction preserves bitwise score parity (see
// ir.ShardedIndex.Compacted), a swap is invisible to results: searches
// that raced the swap on the old index and searches that follow it on
// the new one return identical bytes. Derived caches (the HTTP result
// cache) therefore stay valid across a compaction.

// CompactionResult describes one Engine.Compact pass.
type CompactionResult struct {
	// SlotsBefore and SlotsAfter are the index's global slot counts
	// around the pass.
	SlotsBefore, SlotsAfter int
	// Live is the number of live instances carried over.
	Live int
	// ReclaimedSlots is the number of tombstoned slots eliminated.
	ReclaimedSlots int
	// Compactions is the engine's total completed passes, this one
	// included.
	Compactions int64
}

// IndexStats is a point-in-time view of the index's physical occupancy.
type IndexStats struct {
	// Slots is the global id-space size, tombstones included.
	Slots int
	// Live is the number of live (searchable) instances.
	Live int
	// Tombstones is Slots - Live: dead slots awaiting compaction.
	Tombstones int
}

// Compact rebuilds the index without tombstones and swaps it in.
// Searches are never blocked for the duration of the rebuild: they keep
// scoring the old shards until the swap, and the swap is one pointer
// write under the write lock (which waits only for in-flight readers to
// drain). Concurrent AddInstance/RemoveInstance calls block until the
// pass finishes; concurrent ApplyFeedback does not. Results before,
// during, and after a pass are bitwise identical — compaction changes
// the cost of a search, never its outcome.
func (e *Engine) Compact() (CompactionResult, error) {
	e.indexMu.Lock()
	defer e.indexMu.Unlock()
	e.mu.RLock()
	old := e.index
	e.mu.RUnlock()
	compacted, st, err := old.Compacted()
	if err != nil {
		return CompactionResult{}, err
	}
	// The instance map's writers all hold indexMu, so it can be read
	// here without the engine lock.
	byDoc := make([]*core.Instance, compacted.Slots())
	for g := range byDoc {
		byDoc[g] = e.instances[compacted.Name(g)]
	}
	// Compaction is a logged mutation: it re-assigns documents to shards
	// (live docs are re-added onto dense ids), which shard-subset scoring
	// observes even though full-index searches cannot. Replicas must
	// therefore compact at the same log position; appending under
	// indexMu serializes the record against add/remove records exactly
	// as the passes themselves are serialized. (Utilities are untouched,
	// so ordering against feedback records is immaterial.)
	if e.mlog != nil {
		if err := e.mlog.AppendCompact(); err != nil {
			return CompactionResult{}, fmt.Errorf("search: logging compaction: %w", err)
		}
	}
	e.mu.Lock()
	e.index, e.byDoc = compacted, byDoc
	e.mu.Unlock()
	e.slotsReclaimed.Add(int64(st.ReclaimedSlots))
	return CompactionResult{
		SlotsBefore:    st.SlotsBefore,
		SlotsAfter:     st.SlotsAfter,
		Live:           st.Live,
		ReclaimedSlots: st.ReclaimedSlots,
		Compactions:    e.compactions.Add(1),
	}, nil
}

// IndexStats returns the index's current slot occupancy.
func (e *Engine) IndexStats() IndexStats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	slots := e.index.Slots()
	live := e.index.Len()
	return IndexStats{Slots: slots, Live: live, Tombstones: slots - live}
}

// Compactions returns the number of completed compaction passes
// (explicit and auto-triggered). Monotone.
func (e *Engine) Compactions() int64 { return e.compactions.Load() }

// SlotsReclaimed returns the total tombstoned slots eliminated across
// all compaction passes. Monotone.
func (e *Engine) SlotsReclaimed() int64 { return e.slotsReclaimed.Load() }

// SetAutoCompact installs the auto-compaction policy: after a removal
// leaves the tombstone ratio (dead slots / total slots) at or above
// ratio, the engine compacts itself before the removal call returns.
// ratio <= 0 disables auto-compaction; ratio is not persisted by
// snapshots (it is serving policy, not engine state), so operators
// re-apply it at boot — qunitsd's -compact-ratio flag does.
func (e *Engine) SetAutoCompact(ratio float64) {
	e.compactRatio.Store(math.Float64bits(ratio))
}

// maybeAutoCompact runs a compaction pass when the configured tombstone
// ratio is met. Called by mutators AFTER they release every lock, so the
// pass itself re-enters the normal Compact protocol.
func (e *Engine) maybeAutoCompact() {
	ratio := math.Float64frombits(e.compactRatio.Load())
	if ratio <= 0 {
		return
	}
	st := e.IndexStats()
	if st.Tombstones == 0 || float64(st.Tombstones) < ratio*float64(st.Slots) {
		return
	}
	// A racing explicit Compact may already have reclaimed the slots;
	// the extra pass is then a cheap no-op rebuild, not a correctness
	// problem.
	_, _ = e.Compact()
}
