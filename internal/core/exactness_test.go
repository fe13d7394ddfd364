package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"github.com/imgrn/imgrn/internal/gene"
	"github.com/imgrn/imgrn/internal/grn"
	"github.com/imgrn/imgrn/internal/index"
	"github.com/imgrn/imgrn/internal/pivot"
	"github.com/imgrn/imgrn/internal/plan"
	"github.com/imgrn/imgrn/internal/randgen"
	"github.com/imgrn/imgrn/internal/stats"
	"github.com/imgrn/imgrn/internal/synth"
)

// refSamples is the sample count R the estimators use under p.
func refSamples(p Params) int {
	if p.Samples <= 0 {
		return stats.DefaultSamples
	}
	return p.Samples
}

// refEdge is the reference Monte Carlo treatment of one edge of matrix m:
// the vectors in canonical column order, fresh estimators on the edge's
// (Seed, source, lower column, higher column) streams, the Lemma 3 bound
// and the fixed-R estimate.
func refEdge(p Params, m *gene.Matrix, a, b int) (bound, ep float64) {
	if a > b {
		a, b = b, a
	}
	xa, xb := m.StdCol(a), m.StdCol(b)
	coords := []uint64{uint64(int64(m.Source)), uint64(a), uint64(b)}
	pr := grn.NewPruner(randgen.SeedFrom(p.Seed^seedPruner, coords...), p.BoundSamples)
	pr.OneSided = p.OneSided
	est := stats.NewEstimator(randgen.SeedFrom(p.Seed^seedScorer, coords...))
	if p.OneSided {
		ep = est.EdgeProbability(xa, xb, refSamples(p))
	} else {
		ep = est.AbsEdgeProbability(xa, xb, refSamples(p))
	}
	return pr.UpperBound(xa, xb), ep
}

// refVerify is the verifier production must reproduce: a candidate
// holding every query gene has every query edge, in query order, Lemma-3
// tested and estimated at full R on its own streams — no cache, no
// reordering, no curtailment. It also returns the permutations it drew.
func refVerify(p Params, q *grn.Graph, m *gene.Matrix, alpha float64) (*Answer, int) {
	prob, draws := 1.0, 0
	if slices.ContainsFunc(q.Genes(), func(g gene.ID) bool { return !m.Has(g) }) {
		return nil, draws
	}
	var edges []grn.Edge
	for _, e := range q.Edges() {
		a, b := m.IndexOf(q.Gene(e.S)), m.IndexOf(q.Gene(e.T))
		if !m.Informative(a) || !m.Informative(b) {
			return nil, draws
		}
		bound, ep := refEdge(p, m, a, b)
		if bound <= p.Gamma {
			return nil, draws
		}
		draws += refSamples(p)
		if ep <= p.Gamma {
			return nil, draws
		}
		if prob *= ep; prob <= alpha {
			return nil, draws
		}
		edges = append(edges, grn.Edge{S: e.S, T: e.T, P: ep})
	}
	return &Answer{Source: m.Source, Prob: prob, Edges: edges, Genes: slices.Clone(q.Genes())}, draws
}

// lemma5Prunes is refinement's Lemma-5 test of one candidate at α.
func lemma5Prunes(p *Processor, q *grn.Graph, m *gene.Matrix, alpha float64) bool {
	emb := p.idx.Embedding(m.Source)
	if emb == nil || q.NumEdges() == 0 || slices.ContainsFunc(q.Genes(), func(g gene.ID) bool { return !m.Has(g) }) {
		return false
	}
	ub := 1.0
	for _, e := range q.Edges() {
		ub *= emb.UpperBound(m.IndexOf(q.Gene(e.S)), m.IndexOf(q.Gene(e.T)), p.params.OneSided)
		if ub <= alpha {
			break
		}
	}
	return grn.PruneByGraphExistence(ub, alpha)
}

// refQuery answers q the reference way: production's candidate sources
// (descent and complete-star filter), Lemma 5 evaluated on every candidate
// unless the plan switches it off, then refVerify. It returns the answers,
// the candidate sources, the candidates Lemma 5 pruned and the fixed-R
// draws.
func refQuery(t *testing.T, p *Processor, q *grn.Graph) (answers []Answer, sources []int, prunedL5, draws int) {
	t.Helper()
	ec := p.newExec(context.Background())
	defer ec.Close()
	var st Stats
	ts := buildTravState(p, q)
	pairs, err := p.traverse(ec, ts, &st)
	if err != nil {
		t.Fatal(err)
	}
	sources = slices.Clone(reduceCandidates(queryScratchFor(ec), pairs, len(ts.neighbors), &st))
	for _, src := range sources {
		m := p.idx.DB().BySource(src)
		if !p.params.DisableMarkovPruning && lemma5Prunes(p, q, m, p.params.Alpha) {
			prunedL5++
			continue
		}
		a, d := refVerify(p.params, q, m, p.params.Alpha)
		draws += d
		if a != nil {
			answers = append(answers, *a)
		}
	}
	return answers, sources, prunedL5, draws
}

// floorAlphas returns α values on both sides of the Lemma-5 certificate
// of c: the α just below floor^|E_Q| for the index's point floor
// (pivot.BoundFloor), where the index certifies that Lemma 5 cannot prune;
// the floor product itself, the smallest α where Lemma 5 runs; and the α
// halfway from it to 1, where Lemma 5 prunes. None when the floor product
// is not a valid α.
func floorAlphas(c exactCase) []float64 {
	floor := pivot.BoundFloor(c.idx.YMin(), c.params.OneSided)
	fk := 1.0
	for range c.q.Edges() {
		fk *= floor
	}
	if fk <= 0 || fk >= 1 {
		return nil
	}
	return []float64{math.Nextafter(fk, 0), fk, (1 + fk) / 2}
}

// exactCase is one random (D, Q, γ, α) of the differential sweeps.
type exactCase struct {
	label  string
	idx    *index.Index
	q      *grn.Graph
	params Params
}

// sweepExactCases calls fn with a seed-swept set of random Monte Carlo
// cases: small databases whose gene pool barely exceeds a matrix (many
// candidates a query), random thresholds, sidedness and sample counts.
func sweepExactCases(t *testing.T, fn func(c exactCase)) {
	t.Helper()
	seeds := uint64(10)
	if testing.Short() {
		seeds = 4
	}
	for seed := uint64(0); seed < seeds; seed++ {
		rng := randgen.New(0xe4ac7 + seed)
		nMax := 8 + rng.Intn(6)
		ds, err := synth.GenerateDatabase(synth.DBParams{
			N: 30 + rng.Intn(40), NMin: nMax - 2, NMax: nMax, LMin: 8, LMax: 8 + rng.Intn(12),
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
			params := Params{
				Gamma:    []float64{0.2, 0.4, 0.6, 0.8}[rng.Intn(4)],
				Alpha:    []float64{0.01, 0.1, 0.3}[rng.Intn(3)],
				Samples:  []int{24, 64, 101}[rng.Intn(3)],
				Seed:     seed*31 + uint64(qi),
				OneSided: rng.Intn(2) == 0,
			}
			mq, _, err := ds.ExtractQuery(rng, 3+rng.Intn(4))
			if err != nil {
				t.Fatal(err)
			}
			q, err := grn.Infer(mq, grn.AnalyticScorer{OneSided: params.OneSided}, 0.3)
			if err != nil {
				t.Fatal(err)
			}
			if q.NumEdges() == 0 {
				continue
			}
			fn(exactCase{
				label: fmt.Sprintf("seed %d query %d (γ=%g α=%g R=%d oneSided=%v)",
					seed, qi, params.Gamma, params.Alpha, params.Samples, params.OneSided),
				idx: idx, q: q, params: params,
			})
		}
	}
}

// boundOnlyCache holds, for every edge of every candidate, an upper bound
// on its full-R estimate and no estimate: the tight bound itself on even
// edges, a looser one on odd edges.
func boundOnlyCache(c exactCase, p Params, sources []int) *EdgeProbCache {
	cache := NewEdgeProbCache(0)
	for _, src := range sources {
		m := c.idx.DB().BySource(src)
		for i, e := range c.q.Edges() {
			a, b := m.IndexOf(c.q.Gene(e.S)), m.IndexOf(c.q.Gene(e.T))
			if a < 0 || b < 0 || !m.Informative(a) || !m.Informative(b) {
				continue
			}
			_, ep := refEdge(p, m, a, b)
			cache.PutBound(src, a, b, math.Min(1, ep+float64(i%2)*0.1))
		}
	}
	return cache
}

// TestRefineMatchesFixedRReference is the exactness differential of
// Monte Carlo refinement (DESIGN.md §7.2): on random (D, Q, γ, α),
// QueryGraph returns exactly the answers — source, Prob bits, edge bits —
// and the Lemma-5 prune count of the fixed-R query-order reference, at
// every worker count, with and without Lemma-5 pruning, and under a cold
// cache, a cache warmed by the same query, one warmed by a stricter query
// (estimates and bounds), and one holding only bounds. Each case also runs
// at the α on both sides of its floor product (floorAlphas), where the
// index does and does not certify Lemma 5 futile; the reference evaluates
// Lemma 5 on every candidate regardless. A query never draws more than R
// per missed edge, and over the sweep it draws fewer permutations than the
// reference.
func TestRefineMatchesFixedRReference(t *testing.T) {
	cacheModes := []string{"none", "cold", "warm", "stricter", "bounds"}
	answers, drawn, refDrawn, prunedL5 := 0, 0, 0, 0
	var certified [2]int // cases run with Lemma 5 evaluated, certified futile
	sweepExactCases(t, func(c exactCase) {
		for _, alpha := range append([]float64{c.params.Alpha}, floorAlphas(c)...) {
			for _, noMarkov := range []bool{false, true} {
				params := c.params
				params.Alpha = alpha
				params.DisableMarkovPruning = noMarkov
				refP, err := NewProcessor(c.idx, params)
				if err != nil {
					t.Fatal(err)
				}
				if !noMarkov {
					if refP.markovFutile(c.q.NumEdges()) {
						certified[1]++
					} else {
						certified[0]++
					}
				}
				want, sources, wantL5, refDraws := refQuery(t, refP, c.q)
				answers += len(want)
				prunedL5 += wantL5
				for _, workers := range []int{1, 2, 4} {
					for _, mode := range cacheModes {
						p := params
						p.Workers = workers
						label := fmt.Sprintf("%s α=%v noMarkov=%v workers=%d cache=%s", c.label, alpha, noMarkov, workers, mode)
						run := func(p Params) ([]Answer, Stats) {
							proc, err := NewProcessor(c.idx, p)
							if err != nil {
								t.Fatal(err)
							}
							got, st, err := proc.QueryGraph(c.q)
							if err != nil {
								t.Fatal(err)
							}
							return got, st
						}
						switch mode {
						case "cold", "warm":
							p.Cache = NewEdgeProbCache(0)
							if mode == "warm" {
								run(p)
							}
						case "stricter":
							p.Cache = NewEdgeProbCache(0)
							strict := p
							strict.Gamma, strict.Alpha = math.Min(0.95, p.Gamma+0.15), math.Min(0.95, p.Alpha+0.3)
							run(strict)
						case "bounds":
							p.Cache = boundOnlyCache(c, p, sources)
						}
						got, st := run(p)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: answers differ from the fixed-R reference:\n got %+v\nwant %+v", label, got, want)
						}
						if st.MatricesPrunedL5 != wantL5 {
							t.Fatalf("%s: Lemma 5 pruned %d candidates, the reference %d", label, st.MatricesPrunedL5, wantL5)
						}
						if p.Cache != nil && st.Draws > st.CacheMisses*refSamples(p) {
							t.Errorf("%s: %d draws for %d missed edges at R=%d", label, st.Draws, st.CacheMisses, refSamples(p))
						}
						if mode == "none" && workers == 1 {
							drawn += st.Draws
							refDrawn += refDraws
						}
					}
				}
			}
		}
	})
	if answers == 0 || drawn == 0 || drawn >= refDrawn {
		t.Fatalf("sweep too weak or curtailment ineffective: %d answers, %d draws against %d fixed-R draws",
			answers, drawn, refDrawn)
	}
	if prunedL5 == 0 || certified[0] == 0 || certified[1] == 0 {
		t.Fatalf("sweep does not straddle the Lemma-5 floor: %d candidates pruned; %v cases evaluated / certified futile",
			prunedL5, certified)
	}
	t.Logf("%d answers, %d Lemma-5 prunes (%d cases certified futile, %d evaluated); refinement drew %d permutations, the fixed-R query-order reference %d (%.2f×)",
		answers, prunedL5, certified[1], certified[0], drawn, refDrawn, float64(drawn)/float64(refDrawn))
}

// TestRefineStreamedMatchesReference: the streamed top-k path verifies a
// candidate at α raised to the sink floor. Verified at any such α, a
// candidate's answer is the reference's at that α, and every answer the
// sink path returns, and every one it keeps, is a reference answer to the
// bit.
func TestRefineStreamedMatchesReference(t *testing.T) {
	verified, kept := 0, 0
	sweepExactCases(t, func(c exactCase) {
		p := c.params
		p.Cache = NewEdgeProbCache(0)
		proc, err := NewProcessor(c.idx, p)
		if err != nil {
			t.Fatal(err)
		}
		want, sources, _, _ := refQuery(t, proc, c.q)
		rng := randgen.New(uint64(len(sources)) + 7)
		ws := &workerScratch{}
		ec := proc.newExec(context.Background())
		for _, src := range sources {
			alpha := p.Alpha + rng.Float64()*(1-p.Alpha)*0.5
			got := proc.verifyCandidateAt(ec.IO(), c.q, c.q.Edges(), src, ws, alpha, true).answer
			ref, _ := refVerify(p, c.q, c.idx.DB().BySource(src), alpha)
			if !reflect.DeepEqual(got, ref) {
				t.Fatalf("%s: source %d at α=%v: got %+v, reference %+v", c.label, src, alpha, got, ref)
			}
			verified++
		}
		ec.Close()

		k := 1 + len(want)/2
		p.Sink = NewTopKSink(k, p.Alpha)
		proc, err = NewProcessor(c.idx, p)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := proc.QueryGraph(c.q)
		if err != nil {
			t.Fatal(err)
		}
		for _, set := range [][]Answer{got, p.Sink.Results()} {
			for _, a := range set {
				if !slices.ContainsFunc(want, func(w Answer) bool { return reflect.DeepEqual(w, a) }) {
					t.Fatalf("%s: the sink path answered %+v, which is no reference answer", c.label, a)
				}
				kept++
			}
		}
	})
	if verified == 0 || kept == 0 {
		t.Fatalf("sweep too weak: %d candidates verified, %d sink answers", verified, kept)
	}
}

// TestRefineCutoffsExactAtTheBoundary puts the thresholds on the ulp
// around each reference answer: at α one step below its Prob the
// candidate must still answer, bit for bit, and at α = Prob or γ = its
// weakest edge's estimate it must be rejected; at γ one step below that
// estimate it must do what the reference does (the Lemma 3 bound may
// reject at the higher γ). A curtailment or α cutoff off by an ulp, or a
// product taken in another order, fails here.
func TestRefineCutoffsExactAtTheBoundary(t *testing.T) {
	checked := 0
	sweepExactCases(t, func(c exactCase) {
		proc, err := NewProcessor(c.idx, c.params)
		if err != nil {
			t.Fatal(err)
		}
		want, _, _, _ := refQuery(t, proc, c.q)
		for _, a := range want {
			weakest := a.Edges[0].P
			for _, e := range a.Edges {
				weakest = math.Min(weakest, e.P)
			}
			for _, bc := range []struct {
				gamma, alpha float64
				want         *Answer // nil: rejected
				free         bool    // only the reference decides
			}{
				{c.params.Gamma, math.Nextafter(a.Prob, 0), &a, false},
				{c.params.Gamma, a.Prob, nil, false},
				{math.Nextafter(weakest, 0), c.params.Alpha, nil, true},
				{weakest, c.params.Alpha, nil, false},
			} {
				if bc.gamma >= 1 {
					continue // γ = 1 is outside the domain: nothing exceeds it
				}
				p := c.params
				p.Gamma = bc.gamma
				bp, err := NewProcessor(c.idx, p)
				if err != nil {
					t.Fatal(err)
				}
				ec := bp.newExec(context.Background())
				got := bp.verifyCandidateAt(ec.IO(), c.q, c.q.Edges(), a.Source, &workerScratch{}, bc.alpha, true).answer
				ec.Close()
				ref, _ := refVerify(p, c.q, c.idx.DB().BySource(a.Source), bc.alpha)
				if !reflect.DeepEqual(got, ref) || !bc.free && !reflect.DeepEqual(got, bc.want) {
					t.Fatalf("%s: source %d at γ=%v α=%v: got %+v, reference %+v, want %+v",
						c.label, a.Source, bc.gamma, bc.alpha, got, ref, bc.want)
				}
				checked++
			}
		}
	})
	if checked == 0 {
		t.Fatal("no reference answer to put the thresholds around")
	}
}

// TestEdgeStreamEstimatesInLemma2Envelope is the statistical gate behind
// re-recording the Monte Carlo goldens: an estimate drawn from an edge's
// own stream at R = SampleSize(ε, δ) is an (ε, δ)-approximation (Lemma 2)
// of the exact permutation probability. Over random standardized vectors
// of length l ≤ 7, enumerated exactly, the count of estimates outside ±ε
// stays within a fixed false-alarm budget: the expected δ share plus four
// standard deviations.
func TestEdgeStreamEstimatesInLemma2Envelope(t *testing.T) {
	const eps, delta = 0.1, 0.05
	samples := stats.SampleSize(eps, delta)
	proc := &Processor{params: Params{Seed: 0x1e44a2, Samples: samples}}
	ws := &workerScratch{}
	data := randgen.New(0x1e44a3)
	trials := 400
	if testing.Short() {
		trials = 120
	}
	outside := 0
	for trial := 0; trial < trials; trial++ {
		l := 3 + data.Intn(5)
		m := randomMatrix(t, data, trial, 2, l)
		oneSided := data.Intn(2) == 0
		proc.params.OneSided = oneSided
		xa, xb := m.StdCol(0), m.StdCol(1)
		sc, _ := proc.primeScorers(ws, uint64(int64(m.Source)), 0, 1)
		hits, drawn := sc.Est.EdgeHits(xa, xb, samples, oneSided, -1)
		exact := stats.ExactAbsEdgeProbability(xa, xb)
		if oneSided {
			exact = stats.ExactEdgeProbability(xa, xb)
		}
		if drawn != samples {
			t.Fatalf("trial %d: %d of %d draws with no stop rule", trial, drawn, samples)
		}
		if math.Abs(float64(hits)/float64(samples)-exact) > eps {
			outside++
		}
	}
	budget := delta*float64(trials) + 4*math.Sqrt(delta*(1-delta)*float64(trials))
	if float64(outside) > budget {
		t.Errorf("%d of %d estimates at R=%d fall outside ±%v of the exact probability, budget %.1f",
			outside, trials, samples, eps, budget)
	}
}

// TestColumnInferenceEstimatesInLemma2Envelope is the same gate for query
// inference: every estimate a target column's work unit draws from its
// (Seed, column) stream, on either kernel, at R = SampleSize(ε, δ) is an
// (ε, δ)-approximation of the exact permutation probability. Four-gene
// query matrices of length l ≤ 7 go through InferQueryGraph at γ = 0, so
// Lemma 3 keeps every pair; a pair without an edge estimated 0.
func TestColumnInferenceEstimatesInLemma2Envelope(t *testing.T) {
	const eps, delta, genes = 0.1, 0.05, 4
	samples := stats.SampleSize(eps, delta)
	trials := 200
	if testing.Short() {
		trials = 60
	}
	for _, batch := range []bool{true, false} {
		pl, err := plan.Resolve(plan.Request{Samples: samples, Pivot: true, Signatures: true, Markov: true, Batch: batch})
		if err != nil {
			t.Fatal(err)
		}
		data := randgen.New(0x1e44a4)
		outside, estimates := 0, 0
		for trial := 0; trial < trials; trial++ {
			m := randomMatrix(t, data, trial, genes, 3+data.Intn(5))
			oneSided := data.Intn(2) == 0
			proc, err := NewProcessor(nil, Params{Seed: uint64(trial), OneSided: oneSided, Plan: pl})
			if err != nil {
				t.Fatal(err)
			}
			g, err := proc.InferQueryGraph(m)
			if err != nil {
				t.Fatal(err)
			}
			for s := 0; s < genes; s++ {
				for u := s + 1; u < genes; u++ {
					xs, xu := m.StdCol(s), m.StdCol(u)
					exact := stats.ExactAbsEdgeProbability(xs, xu)
					if oneSided {
						exact = stats.ExactEdgeProbability(xs, xu)
					}
					got, _ := g.EdgeProb(s, u)
					if math.Abs(got-exact) > eps {
						outside++
					}
					estimates++
				}
			}
		}
		budget := delta*float64(estimates) + 4*math.Sqrt(delta*(1-delta)*float64(estimates))
		t.Logf("batch=%v: %d of %d estimates outside ±%v, budget %.1f", batch, outside, estimates, eps, budget)
		if float64(outside) > budget {
			t.Errorf("batch=%v: %d of %d estimates at R=%d fall outside ±%v of the exact probability, budget %.1f",
				batch, outside, estimates, samples, eps, budget)
		}
	}
}

// randomMatrix is a matrix of the given number of genes and l samples,
// labelled source. Every gene correlates with the first at a random ρ.
func randomMatrix(t *testing.T, rng *randgen.Rand, source, genes, l int) *gene.Matrix {
	t.Helper()
	ids := make([]gene.ID, genes)
	for j := range ids {
		ids[j] = gene.ID(j + 1)
	}
	for {
		rhos := make([]float64, genes)
		cols := make([][]float64, genes)
		for j := range cols {
			if j > 0 {
				rhos[j] = 2*rng.Float64() - 1
			}
			cols[j] = make([]float64, l)
		}
		for i := 0; i < l; i++ {
			cols[0][i] = rng.Gaussian(0, 1)
			for j := 1; j < genes; j++ {
				cols[j][i] = rhos[j]*cols[0][i] + math.Sqrt(1-rhos[j]*rhos[j])*rng.Gaussian(0, 1)
			}
		}
		m, err := gene.NewMatrix(source, ids, cols)
		if err != nil {
			t.Fatal(err)
		}
		if len(grn.InformativeColumns(m, nil)) == genes {
			return m
		}
	}
}
