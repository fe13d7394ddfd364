package experiments

import (
	"github.com/imgrn/imgrn/internal/core"
	"github.com/imgrn/imgrn/internal/synth"
)

// Stages reports the observability-layer cost breakdown over the γ sweep
// on the Uni dataset: per-stage query time (query-GRN inference, index
// traversal, Lemma-5 Markov-bound pruning, exact Monte Carlo
// verification), edge-probability cache hits/misses per query under a
// cache shared across the workload, and the Monte Carlo permutations
// refinement drew per query. This is the harness counterpart of
// the server's imgrn_stage_seconds metrics: the filter/verify split it
// prints is the pruning-power axis of Figures 5–7 (see EXPERIMENTS.md
// "Reading the numbers").
func Stages(p Params) ([]Figure, error) {
	cache, err := newSweepCache(p)
	if err != nil {
		return nil, err
	}
	xs := GammaSweep
	stageSeries := []string{"infer (s)", "traverse (s)", "markov_prune (s)", "monte_carlo (s)"}
	fTime := Figure{ID: "stages-time", Title: "Per-stage query time vs γ (Uni)",
		XLabel: "γ", YLabel: "seconds"}
	fCache := Figure{ID: "stages-cache", Title: "Edge-probability cache effectiveness vs γ (Uni; cache shared across the workload)",
		XLabel: "γ", YLabel: "avg per query"}
	timeS := make([]Series, len(stageSeries))
	for i, name := range stageSeries {
		timeS[i] = Series{Name: name}
	}
	fDraws := Figure{ID: "stages-draws", Title: "Monte Carlo permutations drawn by refinement vs γ (Uni)",
		XLabel: "γ", YLabel: "avg per query"}
	hitS, missS := Series{Name: "cacheHits"}, Series{Name: "cacheMisses"}
	drawS := Series{Name: "draws"}
	for _, x := range xs {
		cp := coreParams(p)
		cp.Gamma = x
		// One cache per sweep point, shared by the whole workload: hits
		// measure cross-query reuse at identical estimator settings.
		cp.Cache = core.NewEdgeProbCache(0)
		agg, err := cache.run(synth.Uniform, p.NQ, cp)
		if err != nil {
			return nil, err
		}
		ys := []float64{agg.InferSeconds, agg.TraversalSeconds, agg.MarkovSeconds, agg.MonteCarloSeconds}
		for i := range timeS {
			timeS[i].X = append(timeS[i].X, x)
			timeS[i].Y = append(timeS[i].Y, ys[i])
		}
		hitS.X = append(hitS.X, x)
		hitS.Y = append(hitS.Y, agg.CacheHits)
		missS.X = append(missS.X, x)
		missS.Y = append(missS.Y, agg.CacheMisses)
		drawS.X = append(drawS.X, x)
		drawS.Y = append(drawS.Y, agg.Draws)
	}
	fTime.Series = timeS
	fCache.Series = []Series{hitS, missS}
	fDraws.Series = []Series{drawS}
	return []Figure{fTime, fCache, fDraws}, nil
}
