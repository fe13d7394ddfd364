package core

import (
	"math"
	"time"

	"github.com/imgrn/imgrn/internal/exec"
	"github.com/imgrn/imgrn/internal/gene"
	"github.com/imgrn/imgrn/internal/grn"
	"github.com/imgrn/imgrn/internal/obs"
)

// Parallel execution paths (params.Workers > 1).
//
// Schedule independence is the invariant: answers and statistics of a
// parallel query are a pure function of (index contents, Params) — never of
// the goroutine schedule. Two rules enforce it:
//
//  1. Randomness is addressed by work unit, not by goroutine. Each work
//     unit (refinement edge, query target column or gene pair) derives its
//     scorer and pruner seeds from the query Seed and its own coordinates
//     via randgen.SeedFrom, so whichever worker picks it up draws the same
//     sample stream.
//  2. Workers only write into their own pre-assigned slot of a results
//     slice; aggregation into answers, Stats, and the query's I/O reader
//     happens afterwards, sequentially, in index order.
//
// Refinement addresses its randomness the same way at every worker count.
// Query inference does not: the Workers > 1 streams intentionally differ
// from the single sequential stream of Workers <= 1; both are
// deterministic under a fixed Seed.

// refineParallel verifies the candidate matrices concurrently: one work
// unit per candidate, each charging its own sub-reader with a private cold
// page buffer — SubReader stays per-candidate so I/O accounting is
// schedule-independent. Outcomes are aggregated in source order.
func (p *Processor) refineParallel(ec *exec.Context, q *grn.Graph, qEdges []grn.Edge, sources []int,
	skipMarkov bool, st *Stats) ([]Answer, error) {
	qs := queryScratchFor(ec)
	outcomes := exec.GrowSlice(&qs.outcomes, len(sources))
	readers := exec.GrowSlice(&qs.readers, len(sources))
	qs.growWorkers(ec.Workers())
	err := ec.ForEachWorker(len(sources), ec.Grain(), func(w, i int) error {
		sub := ec.IO().SubReader()
		outcomes[i] = p.verifyCandidate(sub, q, qEdges, sources[i], qs.worker(w), skipMarkov)
		readers[i] = sub
		return nil
	})
	if err != nil {
		return nil, err
	}
	var answers []Answer
	for i, o := range outcomes {
		if readers[i] != nil {
			ec.IO().AddStats(readers[i].Stats())
		}
		st.applyCandidate(o)
		if o.answer != nil {
			answers = append(answers, *o.answer)
		}
	}
	return answers, nil
}

// inferPrunedParallel is the Workers > 1 counterpart of grn.InferPruned.
// With the batch kernel enabled the work unit is a target column (see
// inferPrunedParallelBatch); otherwise the O(n²) pair estimates fan out one
// work unit per informative gene pair, each drawing from a (Seed, s, t)-
// addressed stream. The graph is assembled in deterministic order either
// way.
func (p *Processor) inferPrunedParallel(ec *exec.Context, mq *gene.Matrix) (*grn.Graph, error) {
	if !p.params.DisableBatchInference {
		return p.inferPrunedParallelBatch(ec, mq)
	}
	n := mq.NumGenes()
	qs := queryScratchFor(ec)
	pairs := qs.pairs[:0]
	for s := 0; s < n; s++ {
		if !mq.Informative(s) {
			continue
		}
		for t := s + 1; t < n; t++ {
			if mq.Informative(t) {
				pairs = append(pairs, genePair{s, t})
			}
		}
	}
	qs.pairs = pairs
	scores := exec.GrowSlice(&qs.scores, len(pairs))
	qs.growWorkers(ec.Workers())
	err := ec.ForEachWorker(len(pairs), ec.Grain(), func(w, i int) error {
		s, t := pairs[i].s, pairs[i].t
		sc, pr := p.primeScorers(qs.worker(w), uint64(s), uint64(t))
		if pr.UpperBound(mq.StdCol(s), mq.StdCol(t)) <= p.params.Gamma {
			scores[i] = 0 // Lemma 3: the edge cannot clear gamma
			return nil
		}
		scores[i] = sc.Score(mq, s, t)
		return nil
	})
	if err != nil {
		return nil, err
	}
	g := grn.NewGraph(mq.Genes())
	for i, pe := range pairs {
		if scores[i] > p.params.Gamma {
			g.SetEdge(pe.s, pe.t, scores[i])
		}
	}
	return g, nil
}

// inferPrunedParallelBatch fans query-graph inference out one work unit per
// TARGET COLUMN: each unit bounds and scores all informative partners s < t
// against shared permutation batches of column t (the batched inference
// kernel), drawing from a (Seed, t)-addressed stream so the schedule cannot
// influence the answer. Columns are assembled in index order; the summed
// kernel time is recorded as StageInferKernel (aggregate CPU time across
// workers, like the refinement sub-stages).
func (p *Processor) inferPrunedParallelBatch(ec *exec.Context, mq *gene.Matrix) (*grn.Graph, error) {
	n := mq.NumGenes()
	type colUnit struct {
		t    int
		srcs []int
	}
	units := make([]colUnit, 0, n)
	for t := 1; t < n; t++ {
		if !mq.Informative(t) {
			continue
		}
		var srcs []int
		for s := 0; s < t; s++ {
			if mq.Informative(s) {
				srcs = append(srcs, s)
			}
		}
		if len(srcs) > 0 {
			units = append(units, colUnit{t: t, srcs: srcs})
		}
	}
	begin := time.Now()
	type colResult struct {
		probs     []float64 // per srcs index; NaN marks a Lemma-3-pruned pair
		kernel    time.Duration
		estimated int
	}
	qs := queryScratchFor(ec)
	results := make([]colResult, len(units))
	qs.growWorkers(ec.Workers())
	err := ec.ForEachWorker(len(units), ec.Grain(), func(w, i int) error {
		u := units[i]
		sc, pr := p.primeScorers(qs.worker(w), uint64(int64(u.t)))
		kStart := time.Now()
		vals := make([]float64, len(u.srcs))
		pr.UpperBoundColumn(mq, u.t, u.srcs, vals)
		survivors := make([]int, 0, len(u.srcs))
		keep := make([]bool, len(u.srcs))
		for j, ub := range vals {
			if ub > p.params.Gamma {
				survivors = append(survivors, u.srcs[j])
				keep[j] = true
			}
		}
		out := make([]float64, len(u.srcs))
		for j := range out {
			out[j] = math.NaN()
		}
		if len(survivors) > 0 {
			sc.ScoreColumn(mq, u.t, survivors, vals)
			k := 0
			for j := range u.srcs {
				if keep[j] {
					out[j] = vals[k]
					k++
				}
			}
		}
		results[i] = colResult{probs: out, kernel: time.Since(kStart), estimated: len(survivors)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	g := grn.NewGraph(mq.Genes())
	var kTotal time.Duration
	pairs, estimated := 0, 0
	for i, u := range units {
		kTotal += results[i].kernel
		pairs += len(u.srcs)
		estimated += results[i].estimated
		for j, s := range u.srcs {
			if pe := results[i].probs[j]; pe > p.params.Gamma {
				g.SetEdge(s, u.t, pe)
			}
		}
	}
	ec.Tracer().Record(obs.StageInferKernel, begin, kTotal, pairs, estimated)
	return g, nil
}
