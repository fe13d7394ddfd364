package shard_test

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"github.com/imgrn/imgrn/internal/core"
	"github.com/imgrn/imgrn/internal/index"
	"github.com/imgrn/imgrn/internal/randgen"
	"github.com/imgrn/imgrn/internal/shard"
	"github.com/imgrn/imgrn/internal/synth"
)

// sameAnswers compares answer lists in full — source, probability bits,
// edges, genes — with nil and empty alike.
func sameAnswers(a, b []core.Answer) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// TestRefineDifferentialSweep is the end-to-end differential of the
// filter-and-refine pipeline: over a seed-swept set of random (D, Q, γ, α)
// under the deterministic analytic estimator, the indexed answers at P = 1
// and P > 1 — with each ablation switch set singly — must equal
// LinearScan's and Baseline's (source, probability bits, edges), and the
// streamed top-k sink must return the prefix of their ranking.
func TestRefineDifferentialSweep(t *testing.T) {
	variants := []struct {
		name string
		set  func(*core.Params)
	}{
		{"default", func(*core.Params) {}},
		{"noIndexPruning", func(p *core.Params) { p.DisableIndexPruning = true }},
		{"noPivotPruning", func(p *core.Params) { p.DisablePivotPruning = true }},
		{"noSignatures", func(p *core.Params) { p.DisableSignatures = true }},
		{"noGeneRange", func(p *core.Params) { p.DisableGeneRange = true }},
		{"noMarkovPruning", func(p *core.Params) { p.DisableMarkovPruning = true }},
	}
	ctx := context.Background()
	answers := 0
	for seed := uint64(0); seed < 6; seed++ {
		rng := randgen.New(0xd1ff + seed)
		nMax := 8 + rng.Intn(8)
		dbParams := synth.DBParams{
			N: 30 + rng.Intn(50), NMin: nMax - 3, NMax: nMax, LMin: 8, LMax: 8 + rng.Intn(12),
			Dist: synth.Distribution(rng.Intn(2)), GenePool: nMax + rng.Intn(12), Seed: seed,
		}
		opts := index.Options{D: 1 + rng.Intn(3), Samples: 24, Seed: seed, MaxFill: 4 + rng.Intn(12)}
		ds, err := synth.GenerateDatabase(dbParams)
		if err != nil {
			t.Fatal(err)
		}
		var coords []*shard.Coordinator
		for _, p := range []int{1, 3} {
			// The coordinator partitions the database it is given.
			part, err := synth.GenerateDatabase(dbParams)
			if err != nil {
				t.Fatal(err)
			}
			c, err := shard.Build(part.DB, shard.Options{NumShards: p, Index: opts})
			if err != nil {
				t.Fatal(err)
			}
			coords = append(coords, c)
		}
		for qi := 0; qi < 3; qi++ {
			params := core.Params{
				Gamma:    []float64{0.3, 0.6, 0.9, 0.95}[rng.Intn(4)],
				Alpha:    []float64{0.05, 0.2, 0.5}[rng.Intn(3)],
				Seed:     seed,
				Analytic: true,
				OneSided: rng.Intn(2) == 0,
			}
			mq, _, err := ds.ExtractQuery(rng, 2+rng.Intn(4))
			if err != nil {
				t.Fatal(err)
			}
			scan, err := core.NewLinearScan(ds.DB, params)
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := scan.Query(mq)
			if err != nil {
				t.Fatal(err)
			}
			base, err := core.BuildBaseline(ds.DB, params)
			if err != nil {
				t.Fatal(err)
			}
			baseAns, _, err := base.Query(mq)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("seed %d query %d (γ=%g α=%g oneSided=%v)", seed, qi, params.Gamma, params.Alpha, params.OneSided)
			if !sameAnswers(baseAns, want) {
				t.Errorf("%s: Baseline %+v != LinearScan %+v", label, baseAns, want)
			}
			answers += len(want)
			ranked := slices.Clone(want)
			core.RankAnswers(ranked)
			for _, c := range coords {
				for _, v := range variants {
					p := params
					v.set(&p)
					got, _, err := c.QueryContext(ctx, mq, p)
					if err != nil {
						t.Fatal(err)
					}
					if !sameAnswers(got, want) {
						t.Errorf("%s P=%d %s: IM-GRN %+v != LinearScan %+v", label, c.NumShards(), v.name, got, want)
					}
				}
				for _, k := range []int{1, 3} {
					got, _, err := c.QueryTopKContext(ctx, mq, params, k)
					if err != nil {
						t.Fatal(err)
					}
					if top := ranked[:min(k, len(ranked))]; !sameAnswers(got, top) {
						t.Errorf("%s P=%d top-%d: %+v, want %+v", label, c.NumShards(), k, got, top)
					}
				}
			}
		}
	}
	if answers == 0 {
		t.Fatal("sweep too weak: no query had an answer")
	}
}
