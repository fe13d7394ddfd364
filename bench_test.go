// Benchmarks regenerating every table/figure of the paper's evaluation
// (Section 6 and Appendices G/H) plus micro-benchmarks of the substrates
// and the ablation studies called out in DESIGN.md. Figure benchmarks run
// the corresponding experiment at a reduced, fixed scale so that
// `go test -bench=.` completes in minutes; the full-scale sweeps are
// produced by `go run ./cmd/imgrn-bench -mode full`.
package imgrn_test

import (
	"context"
	"fmt"
	"io"
	"testing"

	imgrn "github.com/imgrn/imgrn"
	"github.com/imgrn/imgrn/internal/core"
	"github.com/imgrn/imgrn/internal/experiments"
	"github.com/imgrn/imgrn/internal/gene"
	"github.com/imgrn/imgrn/internal/grn"
	"github.com/imgrn/imgrn/internal/index"
	"github.com/imgrn/imgrn/internal/pivot"
	"github.com/imgrn/imgrn/internal/randgen"
	"github.com/imgrn/imgrn/internal/rstar"
	"github.com/imgrn/imgrn/internal/stats"
	"github.com/imgrn/imgrn/internal/subiso"
	"github.com/imgrn/imgrn/internal/synth"
)

// benchParams is the fixed reduced scale used by the figure benchmarks.
func benchParams() experiments.Params {
	p := experiments.Fast()
	p.N = 300
	p.Queries = 3
	p.Samples = 48
	p.EmbedSamples = 24
	return p
}

func benchmarkFigure(b *testing.B, name string) {
	p := benchParams()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := experiments.Run(name, p, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// One benchmark per table/figure of the evaluation.
func BenchmarkFig5a(b *testing.B) { benchmarkFigure(b, "fig5a") }
func BenchmarkFig5b(b *testing.B) { benchmarkFigure(b, "fig5b") }
func BenchmarkFig6(b *testing.B)  { benchmarkFigure(b, "fig6") }
func BenchmarkFig7(b *testing.B)  { benchmarkFigure(b, "fig7") }
func BenchmarkFig8(b *testing.B)  { benchmarkFigure(b, "fig8") }
func BenchmarkFig9(b *testing.B)  { benchmarkFigure(b, "fig9") }
func BenchmarkFig10(b *testing.B) { benchmarkFigure(b, "fig10") }
func BenchmarkFig11(b *testing.B) { benchmarkFigure(b, "fig11") }
func BenchmarkFig12(b *testing.B) { benchmarkFigure(b, "fig12") }
func BenchmarkFig13(b *testing.B) { benchmarkFigure(b, "fig13") }
func BenchmarkFig14(b *testing.B) { benchmarkFigure(b, "fig14") }
func BenchmarkFig15(b *testing.B) { benchmarkFigure(b, "fig15") }

// --- substrate micro-benchmarks -------------------------------------------

func benchVectors(l int, seed uint64) (xs, xt []float64) {
	rng := randgen.New(seed)
	xs = make([]float64, l)
	xt = make([]float64, l)
	for i := 0; i < l; i++ {
		xs[i] = rng.Gaussian(0, 1)
		xt[i] = 0.4*xs[i] + rng.Gaussian(0, 1)
	}
	return xs, xt
}

func BenchmarkEdgeProbabilityMC(b *testing.B) {
	xs, xt := benchVectors(50, 1)
	m, _ := gene.NewMatrix(0, []gene.ID{0, 1}, [][]float64{xs, xt})
	sc := grn.NewRandomizedScorer(2, stats.DefaultSamples)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.Score(m, 0, 1)
	}
}

// benchInferMatrix builds an n-gene matrix of length-l columns with a
// shared weak factor, so query-graph inference sees a realistic mix of
// prunable and estimable pairs.
func benchInferMatrix(b *testing.B, n, l int, seed uint64) *gene.Matrix {
	b.Helper()
	rng := randgen.New(seed)
	base := make([]float64, l)
	for i := range base {
		base[i] = rng.Gaussian(0, 1)
	}
	ids := make([]gene.ID, n)
	cols := make([][]float64, n)
	for j := 0; j < n; j++ {
		ids[j] = gene.ID(j)
		col := make([]float64, l)
		for i := range col {
			col[i] = 0.3*base[i] + rng.Gaussian(0, 1)
		}
		cols[j] = col
	}
	m, err := gene.NewMatrix(0, ids, cols)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkInferPruned is the headline benchmark of the batched inference
// kernel: full query-graph inference (Lemma-3 pruning + Monte Carlo
// estimation) over an n=100, l=50 matrix, scalar kernel vs batch kernel.
// The batch sub-run reports its speedup over the scalar sub-run.
//
// The nQ=2 sub-runs infer a two-gene query — one target column with one
// partner — below the planner's MinBatchGenes of 3, where an adaptive plan
// picks the scalar kernel. As in core's work units, one scorer/pruner pair
// is reseeded per inference there instead of rebuilt.
func BenchmarkInferPruned(b *testing.B) {
	m := benchInferMatrix(b, 100, 50, 26)
	benchInferKernels(b, func(batch bool) func() error {
		return func() error {
			sc := grn.NewRandomizedScorer(27, stats.DefaultSamples)
			sc.Batch = batch
			_, _, err := grn.InferPruned(m, sc, grn.NewPruner(28, 16), 0.5)
			return err
		}
	})
	b.Run("nQ=2", func(b *testing.B) {
		q := benchInferMatrix(b, 2, 50, 26)
		benchInferKernels(b, func(batch bool) func() error {
			sc, pr := grn.NewRandomizedScorer(27, stats.DefaultSamples), grn.NewPruner(28, 16)
			sc.Batch = batch
			return func() error {
				sc.Reseed(27)
				pr.Reseed(28)
				_, _, err := grn.InferPruned(q, sc, pr, 0.5)
				return err
			}
		})
	})
}

// benchInferKernels runs the inference infer builds for the scalar kernel,
// then for the batch kernel, as two sub-benchmarks; the batch sub-run
// reports its speedup over the scalar one.
func benchInferKernels(b *testing.B, infer func(batch bool) func() error) {
	var scalarNsPerOp float64
	for _, mode := range []struct {
		name  string
		batch bool
	}{{"scalar", false}, {"batch", true}} {
		b.Run(mode.name, func(b *testing.B) {
			run := infer(mode.batch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := run(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			nsPerOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			if !mode.batch {
				scalarNsPerOp = nsPerOp
			} else if scalarNsPerOp > 0 {
				b.ReportMetric(scalarNsPerOp/nsPerOp, "speedup")
			}
		})
	}
}

// BenchmarkEdgeProbabilityScalar estimates 64 pairs against one target
// column with the per-pair scalar estimator: the direct baseline for
// BenchmarkEdgeProbabilityBatch (identical work, shared ns/pair metric).
func BenchmarkEdgeProbabilityScalar(b *testing.B) {
	m := benchInferMatrix(b, 65, 50, 29)
	xt := m.StdCol(64)
	est := stats.NewEstimator(30)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s := 0; s < 64; s++ {
			est.AbsEdgeProbability(m.StdCol(s), xt, stats.DefaultSamples)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/64, "ns/pair")
}

// BenchmarkEdgeProbabilityBatch estimates the same 64 pairs through one
// shared permutation batch and the blocked dot-product kernel.
func BenchmarkEdgeProbabilityBatch(b *testing.B) {
	m := benchInferMatrix(b, 65, 50, 29)
	xt := m.StdCol(64)
	srcs := make([][]float64, 64)
	for s := range srcs {
		srcs[s] = m.StdCol(s)
	}
	dst := make([]float64, len(srcs))
	est := stats.NewEstimator(30)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est.AbsEdgeProbabilityBatch(dst, srcs, xt, stats.DefaultSamples)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(srcs)), "ns/pair")
}

func BenchmarkEdgeProbabilityAnalytic(b *testing.B) {
	xs, xt := benchVectors(50, 3)
	m, _ := gene.NewMatrix(0, []gene.ID{0, 1}, [][]float64{xs, xt})
	sc := grn.AnalyticScorer{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.Score(m, 0, 1)
	}
}

func BenchmarkExpectedPermDistance(b *testing.B) {
	xs, xt := benchVectors(50, 4)
	est := stats.NewEstimator(5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est.ExpectedPermDistance(xs, xt, 64)
	}
}

func benchDataset(b *testing.B, n int, seed uint64) *synth.Dataset {
	b.Helper()
	ds, err := synth.GenerateDatabase(synth.DBParams{
		N: n, NMin: 20, NMax: 40, LMin: 10, LMax: 20,
		Dist: synth.Uniform, GenePool: 1000, Seed: seed,
	})
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

func BenchmarkIndexBuild(b *testing.B) {
	ds := benchDataset(b, 200, 6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := index.Build(ds.DB, index.Options{D: 2, Samples: 24, Seed: 6}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPivotSelection(b *testing.B) {
	ds := benchDataset(b, 1, 7)
	m := ds.DB.Matrix(0)
	rng := randgen.New(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pivot.SelectPivots(m, 2, pivot.DefaultSelection, rng)
	}
}

func BenchmarkPivotEmbed(b *testing.B) {
	ds := benchDataset(b, 1, 9)
	m := ds.DB.Matrix(0)
	est := stats.NewEstimator(10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pivot.Embed(m, []int{0, 1}, est, 24); err != nil {
			b.Fatal(err)
		}
	}
}

// benchLeaf bulk-loads one full leaf (fill 32, d = 2) holding gene g of the
// given sources.
func benchLeaf(b *testing.B, rng *randgen.Rand, g gene.ID, sources []int) *index.LeafTable {
	b.Helper()
	items := make([]rstar.Item, len(sources))
	for i, s := range sources {
		pt := []float64{rng.UniformIn(0, 1.5), rng.UniformIn(0, 1.5), rng.UniformIn(0, 1.5), rng.UniformIn(0, 1.5), float64(g)}
		items[i] = rstar.Item{Point: pt, Ref: index.PackRef(s, i)}
	}
	tree, err := rstar.NewTree(rstar.Config{Dim: 5, MaxFill: len(sources)})
	if err != nil {
		b.Fatal(err)
	}
	if err := tree.BulkLoad(items); err != nil {
		b.Fatal(err)
	}
	if !tree.Root().IsLeaf() {
		b.Fatal("fixture is not a single leaf")
	}
	return index.NewLeafTable(tree.Root())
}

// BenchmarkTraverseLeafJoin measures one leaf-pair check of the pairwise
// descent (Fig. 4 lines 16–21): a full g_s leaf joined with a full
// neighbor-gene leaf on source ID, sweeping the share of the 32 sources
// the two leaves have in common (each match also prices the pivot bound).
func BenchmarkTraverseLeafJoin(b *testing.B) {
	const fill = 32
	for _, hit := range []float64{0, 0.25, 0.5, 1} {
		b.Run(fmt.Sprintf("hit=%.2f", hit), func(b *testing.B) {
			rng := randgen.New(21)
			sa, sb := make([]int, fill), make([]int, fill)
			for i := range sa {
				sa[i] = 2 * i
				sb[i] = 2*i + 1 // interleaved, never equal
				if float64(i) < hit*fill {
					sb[i] = 2 * i
				}
			}
			ta, tb := benchLeaf(b, rng, 3, sa), benchLeaf(b, rng, 7, sb)
			pt := index.PivotTest{D: 2, Gamma: 0.4}
			matched := 0
			count := func(source, sCol, tCol int, pruned bool) { matched++ }
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				index.JoinLeaves(ta, tb, 3, 7, pt, count)
			}
			if want := int(hit*fill) * b.N; matched != want {
				b.Fatalf("%d matches, want %d", matched, want)
			}
		})
	}
}

// BenchmarkIndexAddRemove measures one online AddMatrix plus one
// RemoveMatrix of the same source on an N=300 index (the durable-mixed
// workload's shape, server index options): embedding, R*-tree insertion
// and deletion, and the refresh of the touched nodes' augmentations.
func BenchmarkIndexAddRemove(b *testing.B) {
	ds, err := synth.GenerateDatabase(synth.DBParams{
		N: 301, NMin: 20, NMax: 40, LMin: 10, LMax: 20,
		Dist: synth.Uniform, GenePool: 40, Seed: 22,
	})
	if err != nil {
		b.Fatal(err)
	}
	extra := ds.DB.Matrix(300)
	ds.DB.Remove(extra.Source)
	idx, err := index.Build(ds.DB, index.Options{D: 2, Seed: 42, BufferPages: 1024})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := idx.AddMatrix(extra); err != nil {
			b.Fatal(err)
		}
		if err := idx.RemoveMatrix(extra.Source); err != nil {
			b.Fatal(err)
		}
	}
}

func benchItems(n, dim int, seed uint64) []rstar.Item {
	rng := randgen.New(seed)
	items := make([]rstar.Item, n)
	for i := range items {
		p := make([]float64, dim)
		for d := range p {
			p[d] = rng.UniformIn(0, 100)
		}
		items[i] = rstar.Item{Point: p, Ref: uint64(i)}
	}
	return items
}

func BenchmarkRStarInsert(b *testing.B) {
	items := benchItems(2000, 5, 11)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree, _ := rstar.NewTree(rstar.Config{Dim: 5})
		for _, it := range items {
			if err := tree.Insert(it); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkRStarBulkLoad(b *testing.B) {
	items := benchItems(2000, 5, 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree, _ := rstar.NewTree(rstar.Config{Dim: 5})
		if err := tree.BulkLoad(items); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRStarSearch(b *testing.B) {
	items := benchItems(5000, 5, 13)
	tree, _ := rstar.NewTree(rstar.Config{Dim: 5})
	if err := tree.BulkLoad(items); err != nil {
		b.Fatal(err)
	}
	r := rstar.Rect{
		Min: []float64{10, 10, 10, 10, 10},
		Max: []float64{30, 30, 30, 30, 30},
	}
	var buf []rstar.Item
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = tree.Search(r, buf[:0])
	}
}

func BenchmarkSubgraphIsoFastPath(b *testing.B) {
	rng := randgen.New(14)
	ids := make([]gene.ID, 100)
	for i := range ids {
		ids[i] = gene.ID(i) // unique labels: fast path
	}
	data := grn.NewGraph(ids)
	for i := 0; i < 300; i++ {
		s, t := rng.Intn(100), rng.Intn(100)
		if s != t {
			data.SetEdge(s, t, 0.9)
		}
	}
	query := grn.NewGraph([]gene.ID{1, 2, 3})
	query.SetEdge(0, 1, 0.5)
	query.SetEdge(1, 2, 0.5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		subiso.Find(query, data, subiso.Options{Alpha: 0.1})
	}
}

func BenchmarkSubgraphIsoGeneral(b *testing.B) {
	rng := randgen.New(15)
	ids := make([]gene.ID, 100)
	for i := range ids {
		ids[i] = gene.ID(i % 10) // duplicate labels: general VF2
	}
	data := grn.NewGraph(ids)
	for i := 0; i < 300; i++ {
		s, t := rng.Intn(100), rng.Intn(100)
		if s != t {
			data.SetEdge(s, t, 0.9)
		}
	}
	query := grn.NewGraph([]gene.ID{1, 2, 3})
	query.SetEdge(0, 1, 0.5)
	query.SetEdge(1, 2, 0.5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		subiso.Find(query, data, subiso.Options{Alpha: 0.1})
	}
}

// --- the Figure-6 triangle as a direct micro-benchmark --------------------

type queryBench struct {
	ds      *synth.Dataset
	idx     *index.Index
	queries []*gene.Matrix
}

func setupQueryBench(b *testing.B, seed uint64) *queryBench {
	b.Helper()
	ds := benchDataset(b, 300, seed)
	idx, err := index.Build(ds.DB, index.Options{D: 2, Samples: 24, Seed: seed, Bits: 1024, BufferPages: 1024})
	if err != nil {
		b.Fatal(err)
	}
	rng := randgen.New(seed ^ 0xabcdef)
	var queries []*gene.Matrix
	for i := 0; i < 5; i++ {
		q, _, err := ds.ExtractQuery(rng, 5)
		if err != nil {
			b.Fatal(err)
		}
		queries = append(queries, q)
	}
	return &queryBench{ds: ds, idx: idx, queries: queries}
}

func BenchmarkQueryIMGRN(b *testing.B) {
	qb := setupQueryBench(b, 16)
	proc, err := core.NewProcessor(qb.idx, core.Params{Gamma: 0.5, Alpha: 0.5, Samples: 48, Seed: 16})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := proc.Query(qb.queries[i%len(qb.queries)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelQuery sweeps the intra-query worker budget over a
// grown Fig. 6 query workload: 8-gene queries (nearly 3x the gene pairs
// of the 5-gene figure queries) at Samples=4096, so Monte Carlo
// estimation — the component the worker pool parallelizes — dominates,
// as in the paper's expensive-query regime, and the pool has enough work
// units per fan-out to balance. Workers=1 runs every unit inline; each
// sub-run reports its wall-clock speedup over the workers=1 sub-run
// (bounded by GOMAXPROCS; on a single-CPU host it stays ~1) and
// allocs/op, which the per-query scratch arenas keep nearly flat across
// the sweep.
func BenchmarkParallelQuery(b *testing.B) {
	qb := setupQueryBench(b, 16)
	rng := randgen.New(16 ^ 0xfeed)
	var queries []*gene.Matrix
	for i := 0; i < 5; i++ {
		q, _, err := qb.ds.ExtractQuery(rng, 8)
		if err != nil {
			b.Fatal(err)
		}
		queries = append(queries, q)
	}
	var seqNsPerOp float64
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			proc, err := core.NewProcessor(qb.idx, core.Params{
				Gamma: 0.5, Alpha: 0.5, Samples: 4096, Seed: 16, Workers: workers,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := proc.Query(queries[i%len(queries)]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			nsPerOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			if workers == 1 {
				seqNsPerOp = nsPerOp
			} else if seqNsPerOp > 0 {
				b.ReportMetric(seqNsPerOp/nsPerOp, "speedup")
			}
		})
	}
}

// BenchmarkInferQueryGraph times Monte Carlo query-graph inference alone
// (Fig. 4 line 1) in the mc-cold load-test shape: 8-gene queries taken
// from the database, R = 1024 samples, at one and two workers. Inference
// reads no index pages, and its units are the most uneven fan-out of a
// query (the k-th informative column scores k partners), so this is where
// the order in which the pool hands units out shows.
func BenchmarkInferQueryGraph(b *testing.B) {
	ds := benchDataset(b, 40, 31)
	rng := randgen.New(31 ^ 0xfeed)
	var queries []*gene.Matrix
	for i := 0; i < 8; i++ {
		q, _, err := ds.ExtractQuery(rng, 8)
		if err != nil {
			b.Fatal(err)
		}
		queries = append(queries, q)
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			params := core.Params{Gamma: 0.4, Alpha: 0.3, Samples: 1024, Seed: 31, Workers: workers}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := core.InferQuery(context.Background(), queries[i%len(queries)], params); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQueryTopK times Monte Carlo top-3 queries through a one-shard
// engine at one and two workers, in the mc-cold load-test database shape
// (N = 200 matrices of 30 to 34 genes over a pool of 40) with 4-gene
// queries, R = 1024 samples and a fresh seed per query, so no estimate is
// cached. Refinement runs against the top-k sink, its candidates handed
// out in descending Lemma-5 bound order; at two workers the pool verifies
// two at a time, so this reports whether that fan-out pays once the
// rising floor prunes the tail.
func BenchmarkQueryTopK(b *testing.B) {
	ds, err := synth.GenerateDatabase(synth.DBParams{
		N: 200, NMin: 30, NMax: 34, LMin: 10, LMax: 20,
		Dist: synth.Uniform, GenePool: 40, Seed: 37,
	})
	if err != nil {
		b.Fatal(err)
	}
	eng, err := imgrn.Open(ds.DB, imgrn.IndexOptions{D: 2, Samples: 24, Seed: 37})
	if err != nil {
		b.Fatal(err)
	}
	rng := randgen.New(37 ^ 0xfeed)
	var queries []*gene.Matrix
	for i := 0; i < 8; i++ {
		q, _, err := ds.ExtractQuery(rng, 4)
		if err != nil {
			b.Fatal(err)
		}
		queries = append(queries, q)
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			params := imgrn.QueryParams{Gamma: 0.4, Alpha: 0.01, Samples: 1024, Workers: workers}
			verified := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				params.Seed = uint64(i) + 1
				_, st, err := eng.QueryTopK(queries[i%len(queries)], params, 3)
				if err != nil {
					b.Fatal(err)
				}
				verified += st.CandidateMatrices - st.MatricesPrunedL5
			}
			b.ReportMetric(float64(verified)/float64(b.N), "verified/op")
		})
	}
}

func BenchmarkQueryBaseline(b *testing.B) {
	qb := setupQueryBench(b, 17)
	base, err := core.BuildBaseline(qb.ds.DB, core.Params{Gamma: 0.5, Alpha: 0.5, Seed: 17, Analytic: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := base.Query(qb.queries[i%len(qb.queries)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueryLinearScan(b *testing.B) {
	qb := setupQueryBench(b, 18)
	ls, err := core.NewLinearScan(qb.ds.DB, core.Params{Gamma: 0.5, Alpha: 0.5, Samples: 48, Seed: 18})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ls.Query(qb.queries[i%len(qb.queries)]); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablations (DESIGN.md §5) ----------------------------------------------

// BenchmarkAblationPruning toggles individual pruning layers of the
// traversal and reports the candidate count and I/O alongside time.
func BenchmarkAblationPruning(b *testing.B) {
	qb := setupQueryBench(b, 19)
	cases := []struct {
		name   string
		params core.Params
	}{
		{"full", core.Params{Gamma: 0.5, Alpha: 0.5, Seed: 19, Analytic: true}},
		{"noLemma6", core.Params{Gamma: 0.5, Alpha: 0.5, Seed: 19, Analytic: true, DisableIndexPruning: true}},
		{"noPPR", core.Params{Gamma: 0.5, Alpha: 0.5, Seed: 19, Analytic: true, DisablePivotPruning: true}},
		{"noSignatures", core.Params{Gamma: 0.5, Alpha: 0.5, Seed: 19, Analytic: true, DisableSignatures: true}},
		{"noGeneRange", core.Params{Gamma: 0.5, Alpha: 0.5, Seed: 19, Analytic: true, DisableGeneRange: true}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			proc, err := core.NewProcessor(qb.idx, c.params)
			if err != nil {
				b.Fatal(err)
			}
			var cand, io float64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, st, err := proc.Query(qb.queries[i%len(qb.queries)])
				if err != nil {
					b.Fatal(err)
				}
				cand += float64(st.CandidateGenes)
				io += float64(st.IOCost)
			}
			b.ReportMetric(cand/float64(b.N), "candidates/query")
			b.ReportMetric(io/float64(b.N), "pages/query")
		})
	}
}

// BenchmarkAblationPivotSelection compares the Figure-3 cost-model search
// with uniformly random pivots, reporting the achieved cost T_i.
func BenchmarkAblationPivotSelection(b *testing.B) {
	ds := benchDataset(b, 1, 20)
	m := ds.DB.Matrix(0)
	b.Run("costModel", func(b *testing.B) {
		rng := randgen.New(21)
		var cost float64
		for i := 0; i < b.N; i++ {
			piv := pivot.SelectPivots(m, 2, pivot.DefaultSelection, rng)
			cost += pivot.Cost(m, piv)
		}
		b.ReportMetric(cost/float64(b.N), "T_i")
	})
	b.Run("random", func(b *testing.B) {
		rng := randgen.New(21)
		var cost float64
		for i := 0; i < b.N; i++ {
			piv := rng.SampleWithoutReplacement(m.NumGenes(), 2)
			cost += pivot.Cost(m, piv)
		}
		b.ReportMetric(cost/float64(b.N), "T_i")
	})
}

// BenchmarkAblationSamples sweeps the Monte Carlo budget of the Lemma-2
// estimator and reports the deviation from the exhaustive probability.
func BenchmarkAblationSamples(b *testing.B) {
	rng := randgen.New(22)
	xs := make([]float64, 7)
	xt := make([]float64, 7)
	for i := range xs {
		xs[i] = rng.Gaussian(0, 1)
		xt[i] = 0.5*xs[i] + rng.Gaussian(0, 1)
	}
	m, _ := gene.NewMatrix(0, []gene.ID{0, 1}, [][]float64{xs, xt})
	exact := stats.ExactAbsEdgeProbability(m.StdCol(0), m.StdCol(1))
	for _, s := range []int{16, 64, 256, 1024} {
		b.Run(benchName("S", s), func(b *testing.B) {
			est := stats.NewEstimator(uint64(s))
			var dev float64
			for i := 0; i < b.N; i++ {
				p := est.AbsEdgeProbability(m.StdCol(0), m.StdCol(1), s)
				if p > exact {
					dev += p - exact
				} else {
					dev += exact - p
				}
			}
			b.ReportMetric(dev/float64(b.N), "abs-error")
		})
	}
}

// BenchmarkAblationMatcher pits the unique-label fast path against forcing
// the general VF2 search on the same workload via a wildcard label.
func BenchmarkAblationMatcher(b *testing.B) {
	rng := randgen.New(23)
	ids := make([]gene.ID, 60)
	for i := range ids {
		ids[i] = gene.ID(i)
	}
	data := grn.NewGraph(ids)
	for i := 0; i < 150; i++ {
		s, t := rng.Intn(60), rng.Intn(60)
		if s != t {
			data.SetEdge(s, t, 0.9)
		}
	}
	fast := grn.NewGraph([]gene.ID{1, 2, 3})
	fast.SetEdge(0, 1, 0.5)
	fast.SetEdge(1, 2, 0.5)
	general := grn.NewGraph([]gene.ID{1, 2, subiso.Wildcard})
	general.SetEdge(0, 1, 0.5)
	general.SetEdge(1, 2, 0.5)
	b.Run("fastPath", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			subiso.Find(fast, data, subiso.Options{})
		}
	})
	b.Run("generalVF2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			subiso.Find(general, data, subiso.Options{})
		}
	})
}

func benchName(prefix string, v int) string {
	digits := ""
	if v == 0 {
		digits = "0"
	}
	for v > 0 {
		digits = string(rune('0'+v%10)) + digits
		v /= 10
	}
	return prefix + digits
}

// BenchmarkAblationGeneLayout quantifies the gene-ID-primary bulk-loading
// layout (the Section-5.1 design point of including the gene dimension):
// the same workload over a gene-clustered index vs a natural STR layout.
func BenchmarkAblationGeneLayout(b *testing.B) {
	ds := benchDataset(b, 300, 24)
	rng := randgen.New(25)
	var queries []*gene.Matrix
	for i := 0; i < 5; i++ {
		q, _, err := ds.ExtractQuery(rng, 5)
		if err != nil {
			b.Fatal(err)
		}
		queries = append(queries, q)
	}
	for _, c := range []struct {
		name    string
		natural bool
	}{{"geneClustered", false}, {"naturalSTR", true}} {
		b.Run(c.name, func(b *testing.B) {
			idx, err := index.Build(ds.DB, index.Options{
				D: 2, Samples: 24, Seed: 24, Bits: 1024,
				BufferPages: 1024, NaturalSTRLayout: c.natural,
			})
			if err != nil {
				b.Fatal(err)
			}
			proc, err := core.NewProcessor(idx, core.Params{
				Gamma: 0.5, Alpha: 0.5, Seed: 24, Analytic: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			var io float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, st, err := proc.Query(queries[i%len(queries)])
				if err != nil {
					b.Fatal(err)
				}
				io += float64(st.IOCost)
			}
			b.ReportMetric(io/float64(b.N), "pages/query")
		})
	}
}
