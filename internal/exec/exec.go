// Package exec bundles the per-query execution state of one IM-GRN query:
// the caller's context.Context (cancellation and deadlines), a per-query
// page-I/O reader, a bounded worker pool for intra-query parallelism, and
// a pooled scratch arena.
//
// The IM-GRN_Processing algorithm (paper §5.2) is embarrassingly parallel
// at the candidate-verification stage: each surviving candidate matrix is
// verified independently by Monte Carlo refinement. An exec.Context makes
// that parallelism safe and deterministic by giving every query its own
// I/O accountant view (pagestore.Reader) and by addressing randomness per
// work unit (randgen.SeedFrom) rather than per goroutine, so results never
// depend on the goroutine schedule — including which worker claims which
// unit.
//
// A Context may also carry an obs.Tracer (WithTracer) so the query
// pipeline can record per-stage spans; a nil tracer is the disabled
// state and costs a single pointer test per recording site.
package exec

import (
	"context"

	"github.com/imgrn/imgrn/internal/obs"
	"github.com/imgrn/imgrn/internal/pagestore"
)

// Context carries the execution state of one query. It is created at the
// public API boundary (Engine.QueryContext, server handlers) and threaded
// through traversal and refinement. A Context is bound to a single query
// and must not be reused.
type Context struct {
	ctx     context.Context
	io      *pagestore.Reader
	workers int
	trace   *obs.Tracer
	arena   *Arena
}

// New returns an execution context. A nil ctx means context.Background();
// workers <= 0 means 1 (every fan-out runs inline). io may be nil for
// callers that do not account I/O (e.g. pure in-memory competitors).
func New(ctx context.Context, io *pagestore.Reader, workers int) *Context {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 0 {
		workers = 1
	}
	return &Context{ctx: ctx, io: io, workers: workers}
}

// Background returns a no-cancellation, sequential context with the given
// reader — the execution state legacy entry points run under.
func Background(io *pagestore.Reader) *Context {
	return New(context.Background(), io, 1)
}

// WithTracer attaches a per-query trace collector (see obs.Tracer) and
// returns c for chaining. A nil tracer (the default) disables tracing:
// every span operation on the nil tracer is a no-op pointer test, so the
// instrumented query path is unaffected when observability is off.
func (c *Context) WithTracer(t *obs.Tracer) *Context {
	c.trace = t
	return c
}

// WithArena attaches a scratch arena (typically from GrabArena) and
// returns c for chaining. The arena holds per-query scratch structures
// that packages along the query path reuse across queries; it must be
// returned to the pool with Close once the query is finished.
func (c *Context) WithArena(a *Arena) *Context {
	c.arena = a
	return c
}

// Arena returns the context's scratch arena (nil when none is attached;
// Arena methods are nil-safe, so callers may use the result directly).
func (c *Context) Arena() *Arena { return c.arena }

// Close releases the context's pooled resources (the scratch arena, if
// any) back to their pools. It must be called at most once, after the
// last use of any scratch obtained through the arena; the Context itself
// remains usable for non-arena operations.
func (c *Context) Close() {
	if c.arena != nil {
		c.arena.Release()
		c.arena = nil
	}
}

// Tracer returns the query's trace collector (nil when tracing is
// disabled; all obs.Tracer methods are nil-safe).
func (c *Context) Tracer() *obs.Tracer { return c.trace }

// Ctx returns the underlying context.Context.
func (c *Context) Ctx() context.Context { return c.ctx }

// IO returns the query's I/O reader (may be nil).
func (c *Context) IO() *pagestore.Reader { return c.io }

// Workers returns the effective worker budget (>= 1).
func (c *Context) Workers() int { return c.workers }

// Parallel reports whether the query may fan work units out to more than
// one goroutine.
func (c *Context) Parallel() bool { return c.workers > 1 }

// Err returns the context's cancellation error, if any. Loop boundaries in
// traversal and refinement call this to honor cancellation and deadlines.
func (c *Context) Err() error { return c.ctx.Err() }

// ForEach runs fn(i) for every i in [0, n), fanning the calls out across
// the context's worker budget (see ForEachWorker). Calls must be
// independent: fn typically writes its result into slot i of a pre-sized
// slice, and the caller aggregates the slots in index order afterwards so
// the outcome is deterministic regardless of scheduling.
//
// The first error returned by fn stops the fan-out (in-flight calls finish,
// unclaimed ones are skipped) and is returned. Cancellation of the
// underlying context is honored between work units and reported as
// ctx.Err(). A panic in fn on a worker goroutine is re-thrown in the caller
// as a *ChunkPanic.
func (c *Context) ForEach(n int, fn func(i int) error) error {
	return c.ForEachWorker(n, func(_, i int) error { return fn(i) })
}

// ForEachWorker runs fn(w, i) for every i in [0, n) on a bounded pool:
// up to Workers() workers, the caller among them as worker 0, each
// claiming one unit at a time from a shared cursor in ascending index
// order. A caller whose unit costs differ hands out the most expensive
// first by numbering them first. w identifies the worker slot in [0, Workers())
// executing the call: calls sharing a w value never run concurrently, so
// callers can keep per-worker scratch (column buffers, reseedable
// estimator streams) indexed by w without synchronization. w carries no
// determinism guarantee — which slot executes which unit depends on the
// schedule — so per-unit randomness must still be addressed by i (via
// randgen.SeedFrom), never by w.
//
// When the context is sequential or n <= 1 the fan-out runs inline on the
// calling goroutine as w = 0, in ascending index order, spawning nothing.
func (c *Context) ForEachWorker(n int, fn func(w, i int) error) error {
	if n <= 0 {
		return c.Err()
	}
	if c.workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			if err := c.Err(); err != nil {
				return err
			}
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	return c.forEachPool(n, fn)
}
