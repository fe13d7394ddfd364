package experiments

import (
	"fmt"
	"time"

	"github.com/imgrn/imgrn/internal/core"
	"github.com/imgrn/imgrn/internal/gene"
	"github.com/imgrn/imgrn/internal/index"
	"github.com/imgrn/imgrn/internal/randgen"
	"github.com/imgrn/imgrn/internal/synth"
)

// buildSynthetic generates one synthetic dataset (Uni or Gau) under p.
func buildSynthetic(dist synth.Distribution, p Params) (*synth.Dataset, error) {
	return synth.GenerateDatabase(synth.DBParams{
		N:    p.N,
		NMin: p.NMin, NMax: p.NMax,
		LMin: p.LMin, LMax: p.LMax,
		Dist:     dist,
		GenePool: p.GenePool,
		Seed:     p.Seed ^ uint64(dist+1)*0x9e3779b97f4a7c15,
	})
}

// buildReal carves the "Real" dataset out of the three organism stand-ins.
func buildReal(p Params) (*synth.Dataset, error) {
	genesPerOrganism := 4 * p.NMax
	return synth.RealDataset(p.N, p.NMin, p.NMax, p.LMin, p.LMax,
		genesPerOrganism, p.ROCSampleCap(), p.Seed)
}

// buildIndex constructs the IM-GRN index over ds with p's knobs.
func buildIndex(ds *synth.Dataset, p Params) (*index.Index, error) {
	return index.Build(ds.DB, index.Options{
		D:           p.D,
		Samples:     p.EmbedSamples,
		Seed:        p.Seed,
		Bits:        1024,
		BufferPages: 1024,
	})
}

// coreParams converts experiment params to query-processor params.
func coreParams(p Params) core.Params {
	return core.Params{
		Gamma:    p.Gamma,
		Alpha:    p.Alpha,
		Samples:  p.Samples,
		Seed:     p.Seed ^ 0xc2b2ae3d27d4eb4f,
		Analytic: p.Analytic,
	}
}

// workload extracts the query matrices of one measurement (Section 6.1:
// random connected sub-matrices of database matrices).
func workload(ds *synth.Dataset, p Params, nq int) ([]*gene.Matrix, error) {
	rng := randgen.New(p.Seed ^ 0x8d2fa3c1e5b79604)
	queries := make([]*gene.Matrix, 0, p.Queries)
	for len(queries) < p.Queries {
		q, _, err := ds.ExtractQuery(rng, nq)
		if err != nil {
			return nil, fmt.Errorf("experiments: extracting query: %w", err)
		}
		queries = append(queries, q)
	}
	return queries, nil
}

// Aggregate averages the Section-6 metrics over a query workload, plus
// the per-stage timings and cache effectiveness the observability layer
// surfaces (all averaged per query).
type Aggregate struct {
	CPUSeconds float64 // traversal + refinement, averaged
	IOCost     float64 // page accesses, averaged
	Candidates float64 // candidate genes after pruning, averaged
	Answers    float64
	Queries    int

	// Stage breakdown: query-GRN inference, index traversal, Lemma-5
	// upper-bound pruning and exact Monte Carlo verification (the latter
	// two are aggregate per-candidate CPU time; see core.Stats).
	InferSeconds      float64
	TraversalSeconds  float64
	MarkovSeconds     float64
	MonteCarloSeconds float64

	// Edge-probability cache effectiveness (zero when no cache is set).
	CacheHits   float64
	CacheMisses float64

	// Draws is refinement's Monte Carlo permutations (core.Stats.Draws).
	Draws float64
}

func (a Aggregate) String() string {
	return fmt.Sprintf("cpu=%.6fs io=%.1f cand=%.2f ans=%.2f "+
		"stages[infer=%.6fs traverse=%.6fs markov=%.6fs mc=%.6fs] cacheHit=%.1f cacheMiss=%.1f draws=%.0f (over %d queries)",
		a.CPUSeconds, a.IOCost, a.Candidates, a.Answers,
		a.InferSeconds, a.TraversalSeconds, a.MarkovSeconds, a.MonteCarloSeconds,
		a.CacheHits, a.CacheMisses, a.Draws, a.Queries)
}

// queryEngine abstracts the three methods (IM-GRN, Baseline, LinearScan).
type queryEngine interface {
	Query(mq *gene.Matrix) ([]core.Answer, core.Stats, error)
}

// runWorkload executes all queries on one engine and averages the metrics.
func runWorkload(eng queryEngine, queries []*gene.Matrix) (Aggregate, error) {
	var agg Aggregate
	for _, q := range queries {
		_, st, err := eng.Query(q)
		if err != nil {
			return agg, err
		}
		agg.CPUSeconds += (st.Traversal + st.Refinement).Seconds()
		agg.IOCost += float64(st.IOCost)
		agg.Candidates += float64(st.CandidateGenes)
		agg.Answers += float64(st.Answers)
		agg.InferSeconds += st.InferQuery.Seconds()
		agg.TraversalSeconds += st.Traversal.Seconds()
		agg.MarkovSeconds += st.MarkovPrune.Seconds()
		agg.MonteCarloSeconds += st.MonteCarlo.Seconds()
		agg.CacheHits += float64(st.CacheHits)
		agg.CacheMisses += float64(st.CacheMisses)
		agg.Draws += float64(st.Draws)
		agg.Queries++
	}
	if agg.Queries > 0 {
		n := float64(agg.Queries)
		agg.CPUSeconds /= n
		agg.IOCost /= n
		agg.Candidates /= n
		agg.Answers /= n
		agg.InferSeconds /= n
		agg.TraversalSeconds /= n
		agg.MarkovSeconds /= n
		agg.MonteCarloSeconds /= n
		agg.CacheHits /= n
		agg.CacheMisses /= n
		agg.Draws /= n
	}
	return agg, nil
}

// measureIMGRN builds (dataset, index, processor), runs the workload and
// returns the aggregate plus the build duration (for Figure 13).
func measureIMGRN(dist synth.Distribution, p Params) (Aggregate, time.Duration, error) {
	ds, err := buildSynthetic(dist, p)
	if err != nil {
		return Aggregate{}, 0, err
	}
	idx, err := buildIndex(ds, p)
	if err != nil {
		return Aggregate{}, 0, err
	}
	proc, err := core.NewProcessor(idx, coreParams(p))
	if err != nil {
		return Aggregate{}, 0, err
	}
	queries, err := workload(ds, p, p.NQ)
	if err != nil {
		return Aggregate{}, 0, err
	}
	agg, err := runWorkload(proc, queries)
	return agg, idx.Stats().Elapsed, err
}
