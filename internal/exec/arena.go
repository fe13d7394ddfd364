package exec

import "sync"

// ArenaSlot names one package's scratch compartment inside an Arena.
// Packages along the query path each own a slot so their per-query
// scratch structures (candidate slices, per-worker column buffers)
// survive across queries in the pool without the
// packages having to know about one another.
type ArenaSlot int

const (
	// ArenaQueryScratch is internal/core's refinement scratch.
	ArenaQueryScratch ArenaSlot = iota

	numArenaSlots
)

// Arena is a per-query bundle of reusable scratch structures, recycled
// through a process-wide pool. A query grabs one with GrabArena, attaches
// it to its exec.Context (WithArena), and releases it via Context.Close
// when the query finishes. An Arena is bound to one query at a time and
// is not safe for concurrent slot mutation; the owning package is
// responsible for any per-worker partitioning of the scratch it stores.
//
// Slot values persist across queries: a package retrieves its previous
// scratch with Slot, resets/resizes it, and stores it back with SetSlot.
// Scratch held in an arena must never alias memory that escapes into a
// query's results — anything returned to the caller has to be copied out
// before Release.
type Arena struct {
	slots [numArenaSlots]any
}

var arenaPool = sync.Pool{New: func() any { return new(Arena) }}

// GrabArena takes an arena from the process-wide pool (allocating a fresh
// one when the pool is empty). Pair with Release, typically via
// Context.Close.
func GrabArena() *Arena {
	return arenaPool.Get().(*Arena)
}

// Release returns a to the pool. Slot contents are retained — that reuse
// is the point — so the owning packages must treat anything they fetch
// from a slot as containing stale data from an earlier query.
func (a *Arena) Release() {
	if a != nil {
		arenaPool.Put(a)
	}
}

// Slot returns the scratch stored under s, or nil when the arena is nil
// or the slot has not been populated yet. Callers type-assert the result
// to their own scratch type.
func (a *Arena) Slot(s ArenaSlot) any {
	if a == nil {
		return nil
	}
	return a.slots[s]
}

// SetSlot stores scratch under s for retrieval by the same package on a
// later query. A nil arena ignores the store (the caller's scratch is
// simply not pooled).
func (a *Arena) SetSlot(s ArenaSlot, v any) {
	if a != nil {
		a.slots[s] = v
	}
}

// GrowSlice returns (*buf)[:n] zeroed, reallocating the backing array
// only when the pooled capacity is insufficient — the resize idiom for
// flat result slices kept in arena scratch. Zeroing matters: pooled
// slots carry values from earlier queries (stale pointers, partial
// results) that must not leak into the new query.
func GrowSlice[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
		return *buf
	}
	s := (*buf)[:n]
	var zero T
	for i := range s {
		s[i] = zero
	}
	return s
}
