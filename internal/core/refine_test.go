package core

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"github.com/imgrn/imgrn/internal/gene"
	"github.com/imgrn/imgrn/internal/grn"
	"github.com/imgrn/imgrn/internal/index"
	"github.com/imgrn/imgrn/internal/randgen"
	"github.com/imgrn/imgrn/internal/synth"
)

// handOff is one traversal → refinement hand-off of the sweep below: the
// surviving point pairs of one query under one parameter set, reduced both
// ways — by the pre-filter rule (a source with any surviving pair) and by
// reduceCandidates (a source with a pair for every neighbor of g_s).
type handOff struct {
	label  string
	p      *Processor
	q      *grn.Graph
	qEdges []grn.Edge
	pairs  []candidatePair // the descent's output, cloned out of the scratch
	any    []int           // ascending sources with at least one surviving pair
	kept   []int           // reduceCandidates' result
	st     Stats           // the candidate counters reduceCandidates filled
}

// refineOver runs refinement over sources on a fresh execution context.
func (h handOff) refineOver(t *testing.T, sources []int) []Answer {
	t.Helper()
	ec := h.p.newExec(context.Background())
	defer ec.Close()
	var st Stats
	answers, err := h.p.refine(ec, h.q, h.qEdges, sources, &st)
	if err != nil {
		t.Fatal(err)
	}
	return answers
}

// refineSweepVariants are the parameter sets the hand-off tests sweep: the
// production pipeline, each ablation switch set singly (they only ever add
// surviving pairs), and the per-candidate-stream refinement path.
var refineSweepVariants = []struct {
	name string
	set  func(*Params)
}{
	{"default", func(*Params) {}},
	{"noIndexPruning", func(p *Params) { p.DisableIndexPruning = true }},
	{"noPivotPruning", func(p *Params) { p.DisablePivotPruning = true }},
	{"noSignatures", func(p *Params) { p.DisableSignatures = true }},
	{"noGeneRange", func(p *Params) { p.DisableGeneRange = true }},
	{"noMarkovPruning", func(p *Params) { p.DisableMarkovPruning = true }},
	{"workers4", func(p *Params) { p.Workers = 4 }},
}

// sweepHandOffs calls fn with every hand-off of a seed-swept set of random
// (D, Q, γ, α) under the analytic estimator.
func sweepHandOffs(t *testing.T, fn func(h handOff)) {
	t.Helper()
	for seed := uint64(0); seed < 12; seed++ {
		rng := randgen.New(0x5eed0 + seed)
		// A gene pool barely wider than a matrix makes many matrices hold
		// every query gene, so sources are dropped for dismissed edges as
		// well as for absent genes.
		nMax := 8 + rng.Intn(6)
		ds, err := synth.GenerateDatabase(synth.DBParams{
			N: 30 + rng.Intn(50), NMin: nMax - 2, NMax: nMax, LMin: 8, LMax: 8 + rng.Intn(12),
			Dist: synth.Distribution(rng.Intn(2)), GenePool: nMax + rng.Intn(4), Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		idx, err := index.Build(ds.DB, index.Options{D: 1 + rng.Intn(3), Samples: 24, Seed: seed, MaxFill: 4 + rng.Intn(12)})
		if err != nil {
			t.Fatal(err)
		}
		for qi := 0; qi < 3; qi++ {
			base := Params{
				Gamma:    []float64{0.3, 0.6, 0.9, 0.95}[rng.Intn(4)],
				Alpha:    []float64{0.05, 0.2, 0.5}[rng.Intn(3)],
				Seed:     seed,
				Analytic: true,
				OneSided: rng.Intn(2) == 0,
			}
			mq, _, err := ds.ExtractQuery(rng, 3+rng.Intn(3))
			if err != nil {
				t.Fatal(err)
			}
			q, err := grn.Infer(mq, grn.AnalyticScorer{OneSided: base.OneSided}, base.Gamma)
			if err != nil {
				t.Fatal(err)
			}
			if q.NumEdges() == 0 {
				continue
			}
			for _, v := range refineSweepVariants {
				params := base
				v.set(&params)
				p, err := NewProcessor(idx, params)
				if err != nil {
					t.Fatal(err)
				}
				h := handOff{
					label:  fmt.Sprintf("seed %d query %d %s (γ=%g α=%g)", seed, qi, v.name, base.Gamma, base.Alpha),
					p:      p,
					q:      q,
					qEdges: q.Edges(),
				}
				ec := p.newExec(context.Background())
				ts := buildTravState(p, q)
				pairs, err := p.traverse(ec, ts, &h.st)
				if err != nil {
					t.Fatal(err)
				}
				h.pairs = slices.Clone(pairs)
				for _, c := range h.pairs {
					h.any = append(h.any, c.source)
				}
				slices.Sort(h.any)
				h.any = slices.Compact(h.any)
				h.kept = slices.Clone(reduceCandidates(queryScratchFor(ec), pairs, len(ts.neighbors), &h.st))
				ec.Close()
				fn(h)
			}
		}
	}
}

// TestRefineCompleteStarMatchesUnfiltered is the filter's differential: an
// unfiltered refinement over the pre-filter source list (any surviving
// pair) must reject every source the complete-star rule drops and return
// the same answers — source, probability bits, edges — as refinement over
// the kept sources.
func TestRefineCompleteStarMatchesUnfiltered(t *testing.T) {
	dropped, droppedHoldingAllGenes, answers := 0, 0, 0
	sweepHandOffs(t, func(h handOff) {
		if !slices.IsSorted(h.kept) {
			t.Errorf("%s: kept sources not ascending: %v", h.label, h.kept)
		}
		want := h.refineOver(t, h.any)
		got := h.refineOver(t, h.kept)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: answers over the kept sources differ from the unfiltered refinement:\n got %+v\nwant %+v",
				h.label, got, want)
		}
		answers += len(want)
		for _, src := range h.any {
			if _, ok := slices.BinarySearch(h.kept, src); ok {
				continue
			}
			dropped++
			if slices.ContainsFunc(want, func(a Answer) bool { return a.Source == src }) {
				t.Errorf("%s: dropped source %d is an answer of the unfiltered refinement", h.label, src)
			}
			m := h.p.idx.DB().BySource(src)
			if !slices.ContainsFunc(h.q.Genes(), func(g gene.ID) bool { return !m.Has(g) }) {
				droppedHoldingAllGenes++
			}
		}
		for _, src := range h.kept {
			if _, ok := slices.BinarySearch(h.any, src); !ok {
				t.Errorf("%s: kept source %d has no surviving pair", h.label, src)
			}
		}
	})
	if dropped == 0 || droppedHoldingAllGenes == 0 || answers == 0 {
		t.Fatalf("sweep too weak: %d dropped sources (%d holding every query gene), %d answers",
			dropped, droppedHoldingAllGenes, answers)
	}
}

// TestRefineCandidateGenesDerived: the derived CandidateGenes must equal a
// map-based distinct count of (source, column) over the kept runs, and
// CandidateMatrices the number of kept sources.
func TestRefineCandidateGenesDerived(t *testing.T) {
	sweepHandOffs(t, func(h handOff) {
		distinct := make(map[[2]int]bool)
		for _, c := range h.pairs {
			if _, ok := slices.BinarySearch(h.kept, c.source); ok {
				distinct[[2]int{c.source, c.sCol}] = true
				distinct[[2]int{c.source, c.tCol}] = true
			}
		}
		if h.st.CandidateGenes != len(distinct) || h.st.CandidateMatrices != len(h.kept) {
			t.Errorf("%s: CandidateGenes = %d, CandidateMatrices = %d; distinct (source, column) = %d over %d kept sources",
				h.label, h.st.CandidateGenes, h.st.CandidateMatrices, len(distinct), len(h.kept))
		}
	})
}

// TestRefineCachedCandidateDrawsNothing: under Monte Carlo a candidate
// whose every edge is cached returns the cached probabilities, reads no
// pages, draws nothing and never primes an edge stream.
func TestRefineCachedCandidateDrawsNothing(t *testing.T) {
	ds, idx := buildFixture(t, 80)
	mq, origin, err := ds.ExtractQuery(randgen.New(81), 4)
	if err != nil {
		t.Fatal(err)
	}
	q, err := grn.Infer(mq, grn.AnalyticScorer{}, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	qEdges := q.Edges()
	if len(qEdges) == 0 {
		t.Fatal("fixture query has no edges")
	}
	params := Params{Gamma: 0.3, Alpha: 0.01, Seed: 82, Samples: 64, Cache: NewEdgeProbCache(0)}
	m := idx.DB().BySource(origin)
	wantProb := 1.0
	var wantEdges []grn.Edge
	for i, e := range qEdges {
		// Values no estimate at 64 samples can produce.
		ep := 0.9 + float64(i+1)/1024
		params.Cache.Put(origin, m.IndexOf(q.Gene(e.S)), m.IndexOf(q.Gene(e.T)), ep)
		wantProb *= ep
		wantEdges = append(wantEdges, grn.Edge{S: e.S, T: e.T, P: ep})
	}
	p, err := NewProcessor(idx, params)
	if err != nil {
		t.Fatal(err)
	}
	ec := p.newExec(context.Background())
	defer ec.Close()
	ws := &workerScratch{}
	o := p.verifyCandidate(ec.IO(), q, qEdges, origin, ws, false)
	if o.answer == nil || o.answer.Prob != wantProb || !reflect.DeepEqual(o.answer.Edges, wantEdges) {
		t.Fatalf("cached candidate answered %+v, want Pr %v over edges %+v", o.answer, wantProb, wantEdges)
	}
	if o.cacheHits != len(qEdges) || o.cacheMisses != 0 {
		t.Errorf("cache hits/misses = %d/%d, want %d/0", o.cacheHits, o.cacheMisses, len(qEdges))
	}
	if io := ec.IO().Stats(); io.Accesses != 0 || io.Hits != 0 {
		t.Errorf("cached candidate touched pages: %+v", io)
	}
	if o.draws != 0 || ws.sc != nil || ws.pr != nil {
		t.Errorf("cached candidate drew %d permutations (edge streams primed: %v)", o.draws, ws.sc != nil)
	}
}

// TestRefineAllocatesOnlyForAnswers is the allocation gate of the
// hand-off: on a pooled arena with a warm cache, reduction + refinement of
// an analytic query allocate nothing for a rejected candidate — only an
// answer (its struct, edges and genes) and the answer slice's growth.
func TestRefineAllocatesOnlyForAnswers(t *testing.T) {
	// A gene pool barely wider than a matrix: dozens of candidates a query.
	ds, err := synth.GenerateDatabase(synth.DBParams{
		N: 60, NMin: 10, NMax: 12, LMin: 10, LMax: 16, GenePool: 14, Seed: 84,
	})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := index.Build(ds.DB, index.Options{D: 2, Samples: 32, Seed: 84})
	if err != nil {
		t.Fatal(err)
	}
	mq, _, err := ds.ExtractQuery(randgen.New(85), 3)
	if err != nil {
		t.Fatal(err)
	}
	q, err := grn.Infer(mq, grn.AnalyticScorer{}, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	qEdges := q.Edges()
	cache := NewEdgeProbCache(0)
	for _, tc := range []struct {
		alpha       float64
		wantAnswers bool
	}{{0.05, true}, {0.999999, false}} {
		p, err := NewProcessor(idx, Params{Gamma: 0.2, Alpha: tc.alpha, Seed: 86, Analytic: true, Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		ec := p.newExec(context.Background())
		ts := buildTravState(p, q)
		var st Stats
		pairs, err := p.traverse(ec, ts, &st)
		if err != nil {
			t.Fatal(err)
		}
		qs := queryScratchFor(ec)
		var answers []Answer
		run := func() {
			sources := reduceCandidates(qs, pairs, len(ts.neighbors), &st)
			if answers, err = p.refine(ec, q, qEdges, sources, &st); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the cache, the scratch and the lazy scorer pair
		if st.CandidateMatrices < 10 || (len(answers) > 0) != tc.wantAnswers {
			t.Fatalf("α=%g: %d candidates, %d answers: the fixture does not exercise the gate",
				tc.alpha, st.CandidateMatrices, len(answers))
		}
		// Per answer: the Answer, its Edges, its Genes; plus the append
		// growth of the answer slice (1, 2, 4, … capacity steps).
		budget := 0
		if n := len(answers); n > 0 {
			budget = 3*n + 1
			for c := 1; c < n; c *= 2 {
				budget++
			}
		}
		if got := testing.AllocsPerRun(50, run); got > float64(budget) {
			t.Errorf("α=%g: reduction + refinement of %d candidates allocate %.0f times per query, want ≤ %d for %d answers",
				tc.alpha, st.CandidateMatrices, got, budget, len(answers))
		}
		ec.Close()
	}
}
