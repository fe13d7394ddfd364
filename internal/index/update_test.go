package index

import (
	"runtime"
	"slices"
	"testing"

	"github.com/imgrn/imgrn/internal/bitvec"
	"github.com/imgrn/imgrn/internal/gene"
	"github.com/imgrn/imgrn/internal/randgen"
	"github.com/imgrn/imgrn/internal/rstar"
	"github.com/imgrn/imgrn/internal/stats"
	"github.com/imgrn/imgrn/internal/synth"
)

// TestAddMatrixMatchesFreshBuild: growing an index incrementally must give
// the same embeddings and tree contents as building from scratch over the
// enlarged database.
func TestAddMatrixMatchesFreshBuild(t *testing.T) {
	full := smallDataset(t, 12, 60)
	opts := Options{D: 2, Samples: 24, Seed: 60}

	// Fresh build over all 12 matrices.
	fresh, err := Build(full.DB, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Incremental: build over the first 9, then add the remaining 3.
	partial := gene.NewDatabase()
	for i := 0; i < 9; i++ {
		if err := partial.Add(full.DB.Matrix(i)); err != nil {
			t.Fatal(err)
		}
	}
	grown, err := Build(partial, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 9; i < 12; i++ {
		if err := grown.AddMatrix(full.DB.Matrix(i)); err != nil {
			t.Fatal(err)
		}
	}

	if grown.Tree().Size() != fresh.Tree().Size() {
		t.Fatalf("tree sizes: grown %d vs fresh %d", grown.Tree().Size(), fresh.Tree().Size())
	}
	if msg := grown.Tree().CheckInvariants(); msg != "" {
		t.Fatalf("grown tree invariants: %s", msg)
	}
	for _, m := range full.DB.Matrices() {
		fe := fresh.Embedding(m.Source)
		ge := grown.Embedding(m.Source)
		if ge == nil {
			t.Fatalf("grown index lacks embedding for %d", m.Source)
		}
		for j := range fe.X {
			for r := range fe.X[j] {
				if fe.X[j][r] != ge.X[j][r] || fe.Y[j][r] != ge.Y[j][r] {
					t.Fatalf("embedding differs for source %d (incremental vs fresh)", m.Source)
				}
			}
		}
	}
	// Inverted file must cover the new sources.
	for i := 9; i < 12; i++ {
		m := full.DB.Matrix(i)
		for _, g := range m.Genes() {
			if !grown.Inverted().Sources(g).Test(bitvec.HashSource(m.Source, grown.Bits())) {
				t.Fatalf("IF missing new source %d", m.Source)
			}
		}
	}
	// Every node must carry pages and signatures after the inserts.
	grown.Tree().Walk(func(n *rstar.Node) bool {
		if n.Pages() == 0 {
			t.Error("node without pages after AddMatrix")
		}
		if n.Aug == nil {
			t.Error("node without signatures after AddMatrix")
		}
		return true
	})
}

func TestAddMatrixValidation(t *testing.T) {
	ds := smallDataset(t, 3, 61)
	idx, err := Build(ds.DB, Options{D: 1, Samples: 8, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.AddMatrix(nil); err == nil {
		t.Error("nil matrix should be rejected")
	}
	if err := idx.AddMatrix(ds.DB.Matrix(0)); err == nil {
		t.Error("duplicate source should be rejected")
	}
}

func TestAddMatrixQueryable(t *testing.T) {
	ds := smallDataset(t, 6, 62)
	idx, err := Build(ds.DB, Options{D: 2, Samples: 16, Seed: 62})
	if err != nil {
		t.Fatal(err)
	}
	extra, err := synth.GenerateDatabase(synth.DBParams{
		N: 1, NMin: 8, NMax: 8, LMin: 10, LMax: 10,
		Dist: synth.Uniform, GenePool: 40, Seed: 777,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := extra.DB.Matrix(0)
	// Re-source to avoid collision.
	remapped, err := m.SubMatrix(1000, seq(m.NumGenes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.AddMatrix(remapped); err != nil {
		t.Fatal(err)
	}
	if idx.Embedding(1000) == nil {
		t.Error("embedding for added source missing")
	}
	if idx.DB().BySource(1000) == nil {
		t.Error("database does not contain added source")
	}
	idx.Tree().Walk(func(n *rstar.Node) bool {
		if n.Pages() == 0 {
			t.Error("node without pages after AddMatrix")
		}
		return true
	})
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// TestRemoveMatrix removes a source and verifies queries no longer see it
// while the rest of the index stays intact.
func TestRemoveMatrix(t *testing.T) {
	ds := smallDataset(t, 10, 63)
	idx, err := Build(ds.DB, Options{D: 2, Samples: 16, Seed: 63})
	if err != nil {
		t.Fatal(err)
	}
	victim := ds.DB.Matrix(4).Source
	removedGenes := ds.DB.BySource(victim).NumGenes()
	before := idx.Tree().Size()
	if err := idx.RemoveMatrix(victim); err != nil {
		t.Fatal(err)
	}
	if idx.Tree().Size() != before-removedGenes {
		t.Errorf("tree size %d, want %d", idx.Tree().Size(), before-removedGenes)
	}
	if idx.DB().BySource(victim) != nil {
		t.Error("database still holds removed source")
	}
	if idx.Embedding(victim) != nil {
		t.Error("embedding still present")
	}
	if msg := idx.Tree().CheckInvariants(); msg != "" {
		t.Errorf("tree invariants after removal: %s", msg)
	}
	// No leaf item may reference the removed source.
	idx.Tree().Walk(func(n *rstar.Node) bool {
		if n.IsLeaf() {
			for i := 0; i < n.NumEntries(); i++ {
				src, _ := UnpackRef(n.Item(i).Ref)
				if src == victim {
					t.Error("tree still references removed source")
				}
			}
		}
		if n.Aug == nil {
			t.Error("node without signature after removal")
		}
		return true
	})
	if err := idx.RemoveMatrix(victim); err == nil {
		t.Error("double removal should error")
	}
}

func TestDatabaseRemove(t *testing.T) {
	ds := smallDataset(t, 3, 64)
	if !ds.DB.Remove(ds.DB.Matrix(1).Source) {
		t.Fatal("remove reported not-present")
	}
	if ds.DB.Len() != 2 {
		t.Errorf("len = %d", ds.DB.Len())
	}
	if ds.DB.Remove(99999) {
		t.Error("removed a phantom source")
	}
}

// TestAddRemoveMatrixAllocs bounds the allocations of one online AddMatrix
// plus RemoveMatrix on an N = 300 index (BenchmarkIndexAddRemove's shape).
// The bound guards the tree's insert and delete paths: an insert or a
// delete allocates per node it splits or dissolves, not per level or
// entry it passes.
func TestAddRemoveMatrixAllocs(t *testing.T) {
	ds, err := synth.GenerateDatabase(synth.DBParams{
		N: 301, NMin: 20, NMax: 40, LMin: 10, LMax: 20,
		Dist: synth.Uniform, GenePool: 40, Seed: 22,
	})
	if err != nil {
		t.Fatal(err)
	}
	extra := ds.DB.Matrix(300)
	ds.DB.Remove(extra.Source)
	idx, err := Build(ds.DB, Options{D: 2, Seed: 42, BufferPages: 1024})
	if err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(10, func() {
		if err := idx.AddMatrix(extra); err != nil {
			t.Fatal(err)
		}
		if err := idx.RemoveMatrix(extra.Source); err != nil {
			t.Fatal(err)
		}
	})
	const bound = 3000 // about 620 today; about 2 500 under the R* rules
	if got > bound {
		t.Errorf("one AddMatrix + RemoveMatrix allocates %.0f times, want ≤ %d", got, bound)
	}
}

// TestEmbedManyGenesMemory: embedding one matrix of many genes, as an
// online add of a large matrix does, allocates a small multiple of the
// gene count: the column-distance table holds only the columns the pivot
// search touches, at most GlobalIter·(D + SwapIter) + D of n entries each,
// never an n×n table (3.2 GB at n = 20 000).
func TestEmbedManyGenesMemory(t *testing.T) {
	const n, l = 20000, 2
	rng := randgen.New(23)
	genes := make([]gene.ID, n)
	cols := make([][]float64, n)
	for j := range cols {
		genes[j] = gene.ID(j)
		cols[j] = []float64{rng.Gaussian(0, 1), rng.Gaussian(0, 1)}
	}
	m, err := gene.NewMatrix(7, genes, cols)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Seed: 42}.withDefaults()
	touched := opts.Selection.GlobalIter*(opts.D+opts.Selection.SwapIter) + opts.D
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e, err := Embed(m, opts)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.emb.D; got != opts.D {
		t.Fatalf("embedding has %d pivots, want %d", got, opts.D)
	}
	// The table, plus a few n-long slices of scratch and of the embedding.
	bound := uint64((touched + 48) * n * 8)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("embedding %d genes allocates %d bytes, bound %d", n, got, bound)
	if got > bound {
		t.Errorf("embedding %d genes allocates %d bytes, want ≤ %d", n, got, bound)
	}
}

// TestEmbedScratchDropsLongColumnBlock: a scratch that embedded a matrix
// of columns longer than maxKeptSamples gives up its estimator, whose
// permutation block grew to four such columns, before it can be pooled;
// after a matrix of short columns it keeps the estimator.
func TestEmbedScratchDropsLongColumnBlock(t *testing.T) {
	rng := randgen.New(24)
	opts := Options{Seed: 42, Samples: 8}.withDefaults()
	for _, l := range []int{20, maxKeptSamples + 1} {
		cols := make([][]float64, 3)
		for j := range cols {
			cols[j] = make([]float64, l)
			for i := range cols[j] {
				cols[j][i] = rng.Gaussian(0, 1)
			}
		}
		m, err := gene.NewMatrix(1, []gene.ID{4, 5, 6}, cols)
		if err != nil {
			t.Fatal(err)
		}
		sc := &embedScratch{rng: randgen.New(0), est: stats.NewEstimator(0)}
		est := sc.est
		if _, _, err := embedOne(m, opts, sc); err != nil {
			t.Fatal(err)
		}
		if kept := sc.est == est; kept != (l <= maxKeptSamples) {
			t.Errorf("columns of %d samples: scratch kept its estimator = %v", l, kept)
		}
	}
}

// TestRemoveMatrixMaintainsInvertedFile: after seeded random add/remove
// sequences, the inverted file that AddMatrix and RemoveMatrix maintained
// in place equals newInvertedFromDB over the final database — the same
// genes, and per gene the same source signature. The signatures are 16
// bits wide, so sources of one gene share bits and a removal must keep a
// bit another source still sets.
func TestRemoveMatrixMaintainsInvertedFile(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		all := smallDataset(t, 24, 120+seed).DB.Matrices()
		base := gene.NewDatabase()
		in := map[int]bool{}
		for _, m := range all[:8] {
			if err := base.Add(m); err != nil {
				t.Fatal(err)
			}
			in[m.Source] = true
		}
		x, err := Build(base, Options{D: 2, Samples: 8, Seed: 120 + seed, Bits: 16})
		if err != nil {
			t.Fatal(err)
		}
		rng := randgen.New(130 + seed)
		for step := 0; step < 40; step++ {
			m := all[rng.Intn(len(all))]
			if in[m.Source] {
				err = x.RemoveMatrix(m.Source)
			} else {
				err = x.AddMatrix(m)
			}
			if err != nil {
				t.Fatal(err)
			}
			in[m.Source] = !in[m.Source]
		}
		want := newInvertedFromDB(x.DB(), x.Bits())
		if got := x.Inverted().Genes(); got != want.Genes() {
			t.Fatalf("seed %d: inverted file holds %d genes, a rebuild %d", seed, got, want.Genes())
		}
		for g := gene.ID(-1); g <= 41; g++ {
			if got, w := x.Inverted().Sources(g).Words(), want.Sources(g).Words(); !slices.Equal(got, w) {
				t.Fatalf("seed %d: gene %d signature %x, a rebuild %x", seed, g, got, w)
			}
		}
	}
}
