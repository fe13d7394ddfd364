package shard

import (
	"errors"
	"fmt"

	"github.com/imgrn/imgrn/internal/gene"
	"github.com/imgrn/imgrn/internal/index"
	"github.com/imgrn/imgrn/internal/wal"
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
// becomes immediately queryable. The matrix's pivot embedding, the Monte
// Carlo bulk of an add, runs first and under no lock: it reads only the
// index options every shard shares, so neither the shard's readers nor a
// durable coordinator's other writers wait for it. On a durable
// coordinator every check that can reject the add runs next, then the
// record is appended to its shard's write-ahead log and fsynced, and only
// then is the add applied (durable.go): no read sees an add that was not
// logged.
func (c *Coordinator) AddMatrix(m *gene.Matrix) error {
	if m == nil {
		return fmt.Errorf("shard: nil matrix")
	}
	e, err := index.Embed(m, c.opts.Index)
	if err != nil {
		return err
	}
	if c.dur == nil {
		_, err := c.addMatrix(m, e)
		return err
	}
	c.dur.mu.Lock()
	defer c.dur.mu.Unlock()
	payload, err := c.dur.addRecordLocked(m)
	if err != nil {
		return err
	}
	c.mu.Lock()
	sh, err := c.targetLocked(m.Source)
	c.mu.Unlock()
	if err != nil {
		return err
	}
	return c.logLocked(sh, payload, func() error {
		_, err := c.addMatrix(m, e)
		return err
	})
}

// RemoveMatrix drops a data source from the shard it is placed on; a
// durable coordinator logs the removal before applying it, like AddMatrix.
func (c *Coordinator) RemoveMatrix(source int) error {
	if c.dur == nil {
		_, err := c.removeMatrix(source)
		return err
	}
	c.dur.mu.Lock()
	defer c.dur.mu.Unlock()
	if err := c.dur.usableLocked(); err != nil {
		return err
	}
	sh, ok := c.Placement(source)
	if !ok {
		return fmt.Errorf("shard: source %d: %w", source, ErrSourceNotFound)
	}
	return c.logLocked(sh, wal.EncodeRemoveMatrix(source), func() error {
		_, err := c.removeMatrix(source)
		return err
	})
}

// targetLocked returns the shard an add of source is placed on, or
// ErrSourceExists. The caller holds c.mu.
func (c *Coordinator) targetLocked(source int) (int, error) {
	if sh, ok := c.placement[source]; ok {
		return 0, fmt.Errorf("shard: source %d on shard %d: %w", source, sh, ErrSourceExists)
	}
	if c.opts.PlaceFunc != nil {
		return c.opts.placeOf(source), nil
	}
	return c.cursor % len(c.shards), nil
}

// addMatrix applies an add of m, embedded as e, in memory and returns the
// shard it placed the source on.
func (c *Coordinator) addMatrix(m *gene.Matrix, e *index.Embedded) (int, error) {
	c.mu.Lock()
	sh, err := c.targetLocked(m.Source)
	if err != nil {
		c.mu.Unlock()
		return 0, err
	}
	// The cursor still counts successful placements even under PlaceFunc:
	// the durable manifest recovers it as checkpointed-cursor + replayed
	// adds, so it must advance identically on every code path.
	c.cursor++
	c.placement[m.Source] = sh
	c.mu.Unlock()

	s := c.shards[sh]
	s.mu.Lock()
	err = s.idx.AddEmbedded(e)
	s.mu.Unlock()
	if err != nil {
		c.mu.Lock()
		delete(c.placement, m.Source)
		// Roll the cursor back too: it must count successful placements
		// only, or the durable coordinator's recovered cursor (manifest
		// cursor + replayed adds, none of which include failed adds) would
		// diverge from the live one and change round-robin placement after
		// a restart.
		c.cursor--
		c.mu.Unlock()
		return 0, err
	}
	if !c.sharedDB {
		// FromIndex shares the shard's database as the global view, where
		// idx.AddMatrix has already registered the matrix.
		c.mu.Lock()
		dbErr := c.db.Add(m)
		c.mu.Unlock()
		if dbErr != nil {
			return 0, fmt.Errorf("shard: global database out of sync: %w", dbErr)
		}
	}
	s.caches.InvalidateSource(m.Source)
	s.mutations.Add(1)
	return sh, nil
}

// removeMatrix applies a removal in memory and returns the shard the
// source was placed on.
func (c *Coordinator) removeMatrix(source int) (int, error) {
	c.mu.Lock()
	sh, ok := c.placement[source]
	c.mu.Unlock()
	if !ok {
		return 0, fmt.Errorf("shard: source %d: %w", source, ErrSourceNotFound)
	}
	s := c.shards[sh]
	s.mu.Lock()
	err := s.idx.RemoveMatrix(source)
	s.mu.Unlock()
	if err != nil {
		return 0, err
	}
	c.mu.Lock()
	delete(c.placement, source)
	if !c.sharedDB {
		c.db.Remove(source)
	}
	c.mu.Unlock()
	s.caches.InvalidateSource(source)
	s.mutations.Add(1)
	return sh, nil
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
	loads := make([]int, len(c.shards))
	for _, sh := range c.placement {
		loads[sh]++
	}
	return loads
}
