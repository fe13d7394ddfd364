package core

import (
	"time"

	"github.com/imgrn/imgrn/internal/exec"
	"github.com/imgrn/imgrn/internal/gene"
	"github.com/imgrn/imgrn/internal/grn"
	"github.com/imgrn/imgrn/internal/pagestore"
	"github.com/imgrn/imgrn/internal/randgen"
	"github.com/imgrn/imgrn/internal/stats"
)

// Per-query scratch pooled through the exec.Arena (DESIGN.md §11).
//
// The arena keeps one queryScratch alive across queries: per-worker
// scorer/pruner pairs are Reseed-ed per work unit (a refinement edge or a
// query-inference target column) instead of rebuilt — observationally
// identical, since every estimator entry point refills its scratch before
// reading it — and the flat result slices are resized in place.
//
// Nothing stored here may alias memory that escapes into an Answer:
// verifyExact builds a candidate's edge list in colBufs and copies it
// (and the genes) into fresh slices only once the candidate has matched,
// and the outcome/reader slices are consumed before the query returns.

// workerScratch is the per-worker-slot verification state. ForEachWorker
// guarantees calls sharing a slot never run concurrently, so no locking
// is needed; determinism is preserved because each work unit Reseed-s the
// streams from its own (Seed, unit) coordinates before drawing.
type workerScratch struct {
	sc   *grn.RandomizedScorer
	pr   *grn.Pruner
	bufs colBufs

	// Query inference totals of the units this slot ran: kernel time and
	// pairs estimated. Summed across slots, so the schedule cannot move
	// them.
	inferKernel    time.Duration
	inferEstimated int
}

// boundCand is one candidate of a top-k sink's refinement: its position
// in the candidate sources and its full Lemma-5 upper-bound product.
type boundCand struct {
	pos int
	ub  float64
}

// queryScratch is internal/core's compartment of the exec.Arena.
type queryScratch struct {
	workers  []workerScratch
	outcomes []candOutcome
	readers  []*pagestore.Reader
	order    []boundCand
	sources  []int

	// The running query's vertices by ascending gene, sorted once by
	// refine for every candidate's column mapping.
	geneOrder geneOrder

	// Refinement's fan-out: the running query's inputs, and the work
	// function bound to them once per scratch. A closure handed to the
	// scheduler escapes, so one built per query would be refinement's only
	// allocation for a query without answers.
	refine     refineJob
	verifyUnit func(w, i int) error

	// Query inference: the informative columns and, per target column
	// cols[k], the estimates of its partners cols[:k] at offset k(k−1)/2;
	// the batch kernel's permutation table and the estimator it is drawn
	// from.
	inferCols  []int
	inferProbs []float64
	perms      stats.PermTable
	permEst    *stats.Estimator

	// Traversal scratch: the descent's priority queue, its candidate-pair
	// output, the t-side test outcomes of one node pair's children, and
	// the radix hand-off's second buffer.
	queue     levelQueue
	candPairs []candidatePair
	tOK       []bool
	radixBuf  []int
}

// queryScratchFor returns the query's pooled scratch, creating and
// registering it on first use. Without an arena (legacy Background
// contexts) it degrades to a fresh, unpooled scratch per call.
func queryScratchFor(ec *exec.Context) *queryScratch {
	a := ec.Arena()
	if qs, ok := a.Slot(exec.ArenaQueryScratch).(*queryScratch); ok {
		return qs
	}
	qs := &queryScratch{}
	a.SetSlot(exec.ArenaQueryScratch, qs)
	return qs
}

// worker returns the scratch of worker slot w, growing the slot table on
// first use. Growing is NOT safe under a concurrent fan-out: parallel
// paths must call growWorkers before ForEachWorker so that concurrent
// worker(w) calls only index the pre-sized table.
func (qs *queryScratch) worker(w int) *workerScratch {
	qs.growWorkers(w + 1)
	return &qs.workers[w]
}

// growWorkers pre-sizes the slot table to n slots. Must be called from
// the fan-out's calling goroutine, before any worker runs.
func (qs *queryScratch) growWorkers(n int) {
	for len(qs.workers) < n {
		qs.workers = append(qs.workers, workerScratch{})
	}
}

// primeScorers readies worker scratch ws for one work unit: the pooled
// scorer/pruner pair is reseeded from the query Seed and the unit's own
// coordinates — (source, lower column, higher column) for a refinement
// edge, the target column for query inference — and every params-derived
// knob is reset (the arena is shared across queries with different
// Params). The inference kernel (sc.Batch) is the caller's to set.
func (p *Processor) primeScorers(ws *workerScratch, coords ...uint64) (*grn.RandomizedScorer, *grn.Pruner) {
	if ws.sc == nil {
		ws.sc = grn.NewRandomizedScorer(0, 0)
		ws.pr = grn.NewPruner(0, 0)
	}
	sc, pr := ws.sc, ws.pr
	sc.Reseed(randgen.SeedFrom(p.params.Seed^seedScorer, coords...))
	sc.Samples = p.params.Samples
	sc.OneSided = p.params.OneSided
	pr.Reseed(randgen.SeedFrom(p.params.Seed^seedPruner, coords...))
	pr.BoundSamples = p.params.BoundSamples
	if pr.BoundSamples <= 0 {
		pr.BoundSamples = grn.DefaultBoundSamples
	}
	pr.OneSided = p.params.OneSided
	return sc, pr
}

// drawPerms draws the batch kernel's permutation table of query matrix mq
// into the query scratch and returns it: params.Samples permutations of
// [0, mq.Samples()) from the query's own stream, seeded by Seed^seedPerms
// and so distinct from every work unit's SeedFrom(Seed^·, t) streams. The
// table depends on Seed, R and l alone, never on Workers.
func (qs *queryScratch) drawPerms(params Params, mq *gene.Matrix) *stats.PermTable {
	seed := params.Seed ^ seedPerms
	if qs.permEst == nil {
		qs.permEst = stats.NewEstimator(seed)
	} else {
		qs.permEst.Reseed(seed)
	}
	qs.perms.Draw(qs.permEst, mq.Samples(), params.Samples)
	return &qs.perms
}
