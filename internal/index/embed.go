package index

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/imgrn/imgrn/internal/exec"
	"github.com/imgrn/imgrn/internal/gene"
	"github.com/imgrn/imgrn/internal/pivot"
	"github.com/imgrn/imgrn/internal/randgen"
	"github.com/imgrn/imgrn/internal/stats"
)

// embedCalls counts Monte Carlo matrix embeddings performed by this
// process. The Monte Carlo embedding is the expensive part of index
// construction — it is exactly what snapshots exist to avoid repeating —
// so the counter is the boot-time witness that a warm restart loaded its
// vectors instead of recomputing them (persist-smoke asserts on it).
var embedCalls atomic.Uint64

// EmbedCalls reports the process-lifetime count of per-matrix Monte
// Carlo embeddings (offline builds, online AddMatrix, and WAL replay all
// count; snapshot loads do not).
func EmbedCalls() uint64 { return embedCalls.Load() }

// embedResult is the per-matrix product of the offline embedding phase.
type embedResult struct {
	emb  *pivot.Embedding
	cost float64
}

// embedScratch is one goroutine's reusable embedding state: a generator
// and an estimator reseeded per matrix, and the pivot workspace with its
// column-distance table and the estimator's permutation block.
type embedScratch struct {
	rng *randgen.Rand
	est *stats.Estimator
	ws  pivot.Workspace
}

// maxKeptSamples is the longest column whose estimator a scratch keeps:
// the estimator's permutation block holds four permuted pivots, 2 MiB at
// this length.
const maxKeptSamples = 1 << 16

// scratchPool recycles embedScratch across builds and online adds.
var scratchPool = sync.Pool{New: func() any {
	return &embedScratch{rng: randgen.New(0), est: stats.NewEstimator(0)}
}}

// release returns sc to scratchPool, unbound from its last matrix.
func (sc *embedScratch) release() {
	sc.ws.Release()
	scratchPool.Put(sc)
}

// embedAll runs pivot selection and Monte Carlo embedding for every matrix
// on an exec pool of opts.Workers goroutines, each with its own scratch.
// Each matrix's randomness derives from (opts.Seed, m.Source) alone, so
// the result is bit-identical for any worker count. Every matrix is
// embedded even when one fails, and the error of the lowest failing index
// is the one reported.
func embedAll(db *gene.Database, opts Options) ([]embedResult, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	results := make([]embedResult, db.Len())
	errs := make([]error, db.Len())
	scratch := make([]*embedScratch, min(workers, max(db.Len(), 1)))
	for w := range scratch {
		scratch[w] = scratchPool.Get().(*embedScratch)
	}
	// Embedding errors land in errs, so the fan-out itself cannot fail.
	_ = exec.New(context.Background(), nil, workers).ForEachWorker(db.Len(), func(w, i int) error {
		m := db.Matrix(i)
		if m.NumGenes() == 0 {
			return nil
		}
		emb, cost, err := embedOne(m, opts, scratch[w])
		errs[i] = err
		results[i] = embedResult{emb: emb, cost: cost}
		return nil
	})
	for _, sc := range scratch {
		sc.release()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// embedOne selects pivots and embeds one matrix with source-derived
// deterministic randomness, on the caller's scratch.
func embedOne(m *gene.Matrix, opts Options, sc *embedScratch) (*pivot.Embedding, float64, error) {
	embedCalls.Add(1)
	srcMix := uint64(int64(m.Source))*0x9e3779b97f4a7c15 + 0x6a09e667f3bcc909
	rng, est, ws := sc.rng, sc.est, &sc.ws
	rng.Reseed(opts.Seed ^ srcMix ^ 0x5ee0d1a2c3b4f687)
	est.Reseed(opts.Seed ^ srcMix ^ 0x1d872f3a9cbe5041)
	ws.Reset(m)

	var pivots []int
	if opts.RandomPivots {
		d := opts.D
		if m.NumGenes() < d {
			pivots = make([]int, d)
			for i := range pivots {
				pivots[i] = i % m.NumGenes()
			}
		} else {
			pivots = rng.SampleWithoutReplacement(m.NumGenes(), d)
		}
	} else {
		pivots = ws.SelectPivots(opts.D, opts.Selection, rng)
	}
	cost := ws.Cost(pivots)
	emb, err := ws.Embed(pivots, est, opts.Samples)
	if m.Samples() > maxKeptSamples {
		sc.est = stats.NewEstimator(0) // drop a large permutation block before the pool keeps it
	}
	if err != nil {
		return nil, 0, fmt.Errorf("index: embedding source %d: %w", m.Source, err)
	}
	return emb, cost, nil
}
