package index

import (
	"testing"
	"testing/quick"

	"github.com/imgrn/imgrn/internal/bitvec"
	"github.com/imgrn/imgrn/internal/gene"
	"github.com/imgrn/imgrn/internal/randgen"
	"github.com/imgrn/imgrn/internal/rstar"
	"github.com/imgrn/imgrn/internal/synth"
)

func smallDataset(t *testing.T, n int, seed uint64) *synth.Dataset {
	t.Helper()
	ds, err := synth.GenerateDatabase(synth.DBParams{
		N: n, NMin: 5, NMax: 12, LMin: 8, LMax: 14,
		Dist: synth.Uniform, GenePool: 40, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestPackUnpackRef(t *testing.T) {
	cases := []struct{ source, col int }{
		{0, 0}, {1, 2}, {1 << 20, 99}, {-1, 5}, {-3, 0},
	}
	for _, c := range cases {
		s, col := UnpackRef(PackRef(c.source, c.col))
		if s != c.source || col != c.col {
			t.Errorf("round trip (%d,%d) -> (%d,%d)", c.source, c.col, s, col)
		}
	}
}

func TestBuildBasics(t *testing.T) {
	ds := smallDataset(t, 20, 1)
	idx, err := Build(ds.DB, Options{D: 2, Samples: 32, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantVectors := 0
	for _, m := range ds.DB.Matrices() {
		wantVectors += m.NumGenes()
	}
	if idx.Tree().Size() != wantVectors {
		t.Errorf("tree size = %d, want %d", idx.Tree().Size(), wantVectors)
	}
	if idx.Stats().Vectors != wantVectors {
		t.Errorf("stats vectors = %d", idx.Stats().Vectors)
	}
	if idx.D() != 2 || idx.Tree().Dim() != 5 {
		t.Errorf("dimensions: D=%d treeDim=%d", idx.D(), idx.Tree().Dim())
	}
	for _, m := range ds.DB.Matrices() {
		emb := idx.Embedding(m.Source)
		if emb == nil {
			t.Fatalf("no embedding for source %d", m.Source)
		}
		if len(emb.X) != m.NumGenes() {
			t.Errorf("embedding rows = %d, want %d", len(emb.X), m.NumGenes())
		}
	}
	if msg := idx.Tree().CheckInvariants(); msg != "" {
		t.Errorf("tree invariants: %s", msg)
	}
}

func TestInvertedFileMembership(t *testing.T) {
	ds := smallDataset(t, 15, 2)
	idx, err := Build(ds.DB, Options{D: 1, Samples: 16, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	inv := idx.Inverted()
	for _, m := range ds.DB.Matrices() {
		for _, g := range m.Genes() {
			sig := inv.Sources(g)
			if !sig.Test(bitvec.HashSource(m.Source, idx.Bits())) {
				t.Fatalf("IF missing source %d for gene %d", m.Source, g)
			}
		}
	}
}

// TestSignaturesNoFalseNegatives: every node's V_f/V_d must include the
// hash bit of every gene/source beneath it, at every level.
func TestSignaturesNoFalseNegatives(t *testing.T) {
	ds := smallDataset(t, 25, 3)
	idx, err := Build(ds.DB, Options{D: 2, Samples: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b := idx.Bits()
	var check func(n *rstar.Node)
	check = func(n *rstar.Node) {
		f, d := idx.NodeSignature(n)
		var genes []gene.ID
		var sources []int
		var collect func(m *rstar.Node)
		collect = func(m *rstar.Node) {
			if m.IsLeaf() {
				for i := 0; i < m.NumEntries(); i++ {
					it := m.Item(i)
					src, _ := UnpackRef(it.Ref)
					genes = append(genes, gene.ID(int32(it.Point[len(it.Point)-1])))
					sources = append(sources, src)
				}
				return
			}
			for i := 0; i < m.NumEntries(); i++ {
				collect(m.Child(i))
			}
		}
		collect(n)
		for _, g := range genes {
			if !f.Test(bitvec.HashGene(g, b)) {
				t.Fatalf("node missing gene bit for %d", g)
			}
		}
		for _, s := range sources {
			if !d.Test(bitvec.HashSource(s, b)) {
				t.Fatalf("node missing source bit for %d", s)
			}
		}
		if !n.IsLeaf() {
			for i := 0; i < n.NumEntries(); i++ {
				check(n.Child(i))
			}
		}
	}
	check(idx.Tree().Root())
}

// TestIndexPrunableSoundness: whenever Lemma 6 prunes a node pair, the
// point-level pivot bound of every same-source pair inside is ≤ γ.
func TestIndexPrunableSoundness(t *testing.T) {
	rng := randgen.New(110)
	f := func(seed uint64) bool {
		r := randgen.New(seed ^ rng.Uint64())
		d := 1 + r.Intn(3)
		dim := 2*d + 1
		// Random plausible embedded points: x in [0,2], y in [1, 1.415].
		mk := func() []float64 {
			p := make([]float64, dim)
			for w := 0; w < d; w++ {
				p[2*w] = r.UniformIn(0, 2)
				p[2*w+1] = r.UniformIn(1, 1.415)
			}
			return p
		}
		var as, bs [][]float64
		ra := rstar.EmptyRect(dim)
		rb := rstar.EmptyRect(dim)
		for i := 0; i < 4; i++ {
			pa, pb := mk(), mk()
			as = append(as, pa)
			bs = append(bs, pb)
			ra.ExpandPoint(pa)
			rb.ExpandPoint(pb)
		}
		for _, gamma := range []float64{0.2, 0.5, 0.8, 0.95} {
			for _, oneSided := range []bool{false, true} {
				if !IndexPrunable(ra, rb, d, gamma, oneSided) {
					continue
				}
				for _, pa := range as {
					for _, pb := range bs {
						if PointUpperBound(pa, pb, d, oneSided) > gamma {
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRandomPivotsOption(t *testing.T) {
	ds := smallDataset(t, 10, 5)
	idx, err := Build(ds.DB, Options{D: 2, Samples: 8, Seed: 5, RandomPivots: true})
	if err != nil {
		t.Fatal(err)
	}
	if idx.Tree().Size() == 0 {
		t.Error("random-pivot index is empty")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.D != 2 || o.Bits != bitvec.DefaultBits || o.MaxFill == 0 || o.Samples == 0 {
		t.Errorf("defaults not applied: %+v", o)
	}
}

// TestFetchStdColumnRoundTrip: refinement reads standardized vectors from
// the simulated heap; the bytes must round-trip bit-exactly and be charged
// as page I/O.
func TestFetchStdColumnRoundTrip(t *testing.T) {
	ds := smallDataset(t, 6, 6)
	idx, err := Build(ds.DB, Options{D: 1, Samples: 8, Seed: 6, PageSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	r := idx.NewReader()
	var buf []float64
	for _, m := range ds.DB.Matrices() {
		for j := 0; j < m.NumGenes(); j++ {
			buf, err = idx.FetchStdColumnTo(r, m.Source, j, buf)
			if err != nil {
				t.Fatal(err)
			}
			want := m.StdCol(j)
			if len(buf) != len(want) {
				t.Fatalf("fetched %d values, want %d", len(buf), len(want))
			}
			for i := range want {
				if buf[i] != want[i] {
					t.Fatalf("source %d col %d row %d: %v != %v",
						m.Source, j, i, buf[i], want[i])
				}
			}
		}
	}
	if r.Stats().Accesses == 0 {
		t.Error("heap reads were not charged")
	}
	if _, err := idx.FetchStdColumnTo(r, 9999, 0, nil); err == nil {
		t.Error("unknown source should error")
	}
}
