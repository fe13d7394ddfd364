package shard

import (
	"errors"
	"fmt"

	"github.com/imgrn/imgrn/internal/gene"
)

// Mutation routing errors, matchable with errors.Is so callers (the HTTP
// layer) can map them onto statuses.
var (
	// ErrSourceExists rejects AddMatrix of an already-placed source.
	ErrSourceExists = errors.New("source already placed")
	// ErrSourceNotFound rejects RemoveMatrix of an unplaced source.
	ErrSourceNotFound = errors.New("source not placed")
)

// Mutation routing. The default placement is deterministic round-robin
// by arrival: the i-th source ever placed goes to shard i mod P, so a
// database built then grown reaches the same placement as one grown from
// empty in the same order. With Options.PlaceFunc set (the distributed
// tier's consistent-hash ring) placement is instead a pure function of
// the source ID — arrival order stops mattering, which is what lets
// independent replicas of a shard agree on ownership without
// coordination. Either way a mutation write-locks only its own shard —
// queries on the other P-1 shards and mutations routed elsewhere proceed
// concurrently — and invalidates only the mutated source's cache entries
// on that shard.

// AddMatrix places a new data source on its shard (round-robin, or
// Options.PlaceFunc when set) and indexes it there online. The source
// becomes immediately queryable.
func (c *Coordinator) AddMatrix(m *gene.Matrix) error {
	if m == nil {
		return fmt.Errorf("shard: nil matrix")
	}
	c.mu.Lock()
	if sh, ok := c.placement[m.Source]; ok {
		c.mu.Unlock()
		return fmt.Errorf("shard: source %d on shard %d: %w", m.Source, sh, ErrSourceExists)
	}
	sh := c.cursor % len(c.shards)
	if c.opts.PlaceFunc != nil {
		sh = c.opts.placeOf(m.Source)
	}
	// The cursor still counts successful placements even under PlaceFunc:
	// the durable manifest recovers it as checkpointed-cursor + replayed
	// adds, so it must advance identically on every code path.
	c.cursor++
	c.placement[m.Source] = sh
	c.mu.Unlock()

	s := c.shards[sh]
	s.mu.Lock()
	err := s.idx.AddMatrix(m)
	s.mu.Unlock()
	if err != nil {
		c.mu.Lock()
		delete(c.placement, m.Source)
		// Roll the cursor back too: it must count successful placements
		// only, or the durable store's recovered cursor (manifest cursor +
		// replayed adds, none of which include failed adds) would diverge
		// from the live one and change round-robin placement after a
		// restart.
		c.cursor--
		c.mu.Unlock()
		return err
	}
	if !c.sharedDB {
		// FromIndex shares the shard's database as the global view, where
		// idx.AddMatrix has already registered the matrix.
		c.mu.Lock()
		dbErr := c.db.Add(m)
		c.mu.Unlock()
		if dbErr != nil {
			return fmt.Errorf("shard: global database out of sync: %w", dbErr)
		}
	}
	s.caches.InvalidateSource(m.Source)
	s.mutations.Add(1)
	c.checkImbalance()
	return nil
}

// RemoveMatrix drops a data source from the shard it is placed on.
func (c *Coordinator) RemoveMatrix(source int) error {
	c.mu.Lock()
	sh, ok := c.placement[source]
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("shard: source %d: %w", source, ErrSourceNotFound)
	}
	s := c.shards[sh]
	s.mu.Lock()
	err := s.idx.RemoveMatrix(source)
	s.mu.Unlock()
	if err != nil {
		return err
	}
	c.mu.Lock()
	delete(c.placement, source)
	if !c.sharedDB {
		c.db.Remove(source)
	}
	c.mu.Unlock()
	s.caches.InvalidateSource(source)
	s.mutations.Add(1)
	c.checkImbalance()
	return nil
}

// Placement reports which shard a source is placed on.
func (c *Coordinator) Placement(source int) (shard int, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sh, ok := c.placement[source]
	return sh, ok
}

// Loads returns the per-shard source counts from the placement map.
func (c *Coordinator) Loads() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.loadsLocked()
}

func (c *Coordinator) loadsLocked() []int {
	loads := make([]int, len(c.shards))
	for _, sh := range c.placement {
		loads[sh]++
	}
	return loads
}

// checkImbalance invokes the rebalance hook when removals have skewed the
// placement beyond Options.ImbalanceRatio. Round-robin keeps additions
// balanced to within one source, so only deletion patterns trigger it.
func (c *Coordinator) checkImbalance() {
	if c.opts.OnImbalance == nil || len(c.shards) < 2 {
		return
	}
	c.mu.Lock()
	loads := c.loadsLocked()
	c.mu.Unlock()
	minLoad, maxLoad := loads[0], loads[0]
	for _, l := range loads[1:] {
		if l < minLoad {
			minLoad = l
		}
		if l > maxLoad {
			maxLoad = l
		}
	}
	imbalanced := false
	if minLoad == 0 {
		imbalanced = maxLoad > 1
	} else {
		imbalanced = float64(maxLoad) > c.opts.ImbalanceRatio*float64(minLoad)
	}
	if imbalanced {
		c.opts.OnImbalance(loads)
	}
}
