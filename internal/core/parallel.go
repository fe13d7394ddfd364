package core

import (
	"time"

	"github.com/imgrn/imgrn/internal/exec"
	"github.com/imgrn/imgrn/internal/gene"
	"github.com/imgrn/imgrn/internal/grn"
	"github.com/imgrn/imgrn/internal/obs"
	"github.com/imgrn/imgrn/internal/pagestore"
)

// Work units and schedule independence.
//
// Query inference and refinement each run as one loop of work units under
// ec.ForEachWorker at every worker count; a sequential query (Workers <= 1)
// runs the units inline on the calling goroutine as worker 0. Answers and
// statistics are a pure function of (index contents, Params) — never of
// Workers or the goroutine schedule. Two rules enforce it:
//
//  1. Randomness is addressed by work unit, not by goroutine. Each work
//     unit (refinement edge, query target column) derives its scorer and
//     pruner seeds from the query Seed and its own coordinates via
//     randgen.SeedFrom, so whichever worker picks it up draws the same
//     sample stream.
//  2. Workers only write into their own pre-assigned slot of a results
//     slice; aggregation into answers, Stats, and the query's I/O reader
//     happens afterwards, sequentially, in index order.

// inferPruned is Monte Carlo query-graph inference (Fig. 4 line 1) with
// Lemma-3 pruning, one work unit per informative target column t: the unit
// runs grn's column step on t's informative partners s < t with the scorer
// and pruner reseeded from (Seed, t), on the kernel the plan picked. The
// k-th informative column scores k partners, so unit cost rises with k and
// the units are handed out widest column first (unit i is k = len-1-i):
// the pool's last claims are then its cheapest, and no worker starts the
// most expensive column while the others run dry. The graph is assembled
// in column order; the summed kernel time is recorded as StageInferKernel
// (aggregate CPU time across workers, like the refinement sub-stages).
func (p *Processor) inferPruned(ec *exec.Context, mq *gene.Matrix) (*grn.Graph, error) {
	qs := queryScratchFor(ec)
	cols := grn.InformativeColumns(mq, qs.inferCols)
	qs.inferCols = cols
	pairs := len(cols) * (len(cols) - 1) / 2
	probs := exec.GrowSlice(&qs.inferProbs, pairs)
	qs.growWorkers(ec.Workers())
	for w := range qs.workers {
		qs.workers[w].inferKernel, qs.workers[w].inferEstimated = 0, 0
	}
	gamma, batch := p.params.Gamma, p.params.Plan.Batch
	begin := time.Now()
	err := ec.ForEachWorker(len(cols)-1, func(w, i int) error {
		k := len(cols) - 1 - i
		t, off := cols[k], k*(k-1)/2
		ws := qs.worker(w)
		sc, pr := p.primeScorers(ws, uint64(int64(t)))
		sc.Batch = batch
		kStart := time.Now()
		ws.inferEstimated += sc.InferColumn(mq, t, cols[:k], pr, gamma, probs[off:off+k])
		ws.inferKernel += time.Since(kStart)
		return nil
	})
	if err != nil {
		return nil, err
	}
	g := grn.NewGraph(mq.Genes())
	for k := 1; k < len(cols); k++ {
		t, off := cols[k], k*(k-1)/2
		for j, s := range cols[:k] {
			if pe := probs[off+j]; pe > gamma {
				g.SetEdge(s, t, pe)
			}
		}
	}
	if batch {
		var kernel time.Duration
		estimated := 0
		for w := range qs.workers {
			kernel += qs.workers[w].inferKernel
			estimated += qs.workers[w].inferEstimated
		}
		ec.Tracer().Record(obs.StageInferKernel, begin, kernel, pairs, estimated)
	}
	return g, nil
}

// refine implements lines 28–30: Lemma-5 graph existence pruning on each
// candidate matrix followed by exact verification of Definition 4, one
// work unit per candidate under ec.ForEachWorker, with the outcomes
// aggregated in source order. A candidate's result does not depend on the
// worker count: every estimate draws from its edge's own stream. Under a
// worker budget each candidate charges its own SubReader (a private cold
// page buffer) so the I/O counts cannot depend on the schedule; a
// sequential query charges the query's reader directly.
//
// Lemma 5 is skipped for the whole query when the plan switches it off or
// when the index certifies that it cannot prune (markovFutile).
func (p *Processor) refine(ec *exec.Context, q *grn.Graph, qEdges []grn.Edge, sources []int, st *Stats) ([]Answer, error) {
	if p.params.Sink != nil {
		return p.refineStreamed(ec, q, qEdges, sources, st)
	}
	qs := queryScratchFor(ec)
	qs.outcomes = exec.GrowSlice(&qs.outcomes, len(sources))
	sub := ec.Parallel()
	if sub {
		qs.readers = exec.GrowSlice(&qs.readers, len(sources))
	}
	qs.growWorkers(ec.Workers())
	qs.refine = refineJob{p: p, ec: ec, q: q, qEdges: qEdges, sources: sources, sub: sub,
		skipMarkov: p.params.DisableMarkovPruning || p.markovFutile(len(qEdges))}
	if qs.verifyUnit == nil {
		qs.verifyUnit = qs.verify
	}
	err := ec.ForEachWorker(len(sources), qs.verifyUnit)
	qs.refine = refineJob{}
	if err != nil {
		return nil, err
	}
	var answers []Answer
	for i, o := range qs.outcomes {
		if sub {
			ec.IO().AddStats(qs.readers[i].Stats())
		}
		st.applyCandidate(o)
		if o.answer != nil {
			answers = append(answers, *o.answer)
		}
	}
	return answers, nil
}

// refineJob is the running query's refinement fan-out (Processor.refine).
type refineJob struct {
	p          *Processor
	ec         *exec.Context
	q          *grn.Graph
	qEdges     []grn.Edge
	sources    []int
	skipMarkov bool
	sub        bool // charge each candidate to its own SubReader
}

// verify is refinement's work unit: candidate i of qs.refine on worker
// slot w.
func (qs *queryScratch) verify(w, i int) error {
	j := &qs.refine
	var io pagestore.Toucher = j.ec.IO()
	if j.sub {
		r := j.ec.IO().SubReader()
		qs.readers[i], io = r, r
	}
	qs.outcomes[i] = j.p.verifyCandidate(io, j.q, j.qEdges, j.sources[i], qs.worker(w), j.skipMarkov)
	return nil
}
