package bitvec

import (
	"testing"
	"testing/quick"

	"github.com/imgrn/imgrn/internal/gene"
)

func TestSetTest(t *testing.T) {
	v := New(100)
	if v.Len() != 100 {
		t.Fatalf("Len = %d", v.Len())
	}
	v.Set(0)
	v.Set(63)
	v.Set(64)
	v.Set(99)
	for _, i := range []int{0, 63, 64, 99} {
		if !v.Test(i) {
			t.Errorf("bit %d should be set", i)
		}
	}
	if v.Test(1) || v.Test(65) {
		t.Error("unset bits report set")
	}
	if v.PopCount() != 4 {
		t.Errorf("PopCount = %d", v.PopCount())
	}
}

func TestBoundsPanics(t *testing.T) {
	v := New(10)
	for _, f := range []func(){
		func() { v.Set(10) },
		func() { v.Set(-1) },
		func() { v.Test(10) },
		func() { New(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestOrInPlace(t *testing.T) {
	a := New(70)
	b := New(70)
	a.Set(3)
	b.Set(65)
	a.OrInPlace(b)
	if !a.Test(3) || !a.Test(65) {
		t.Error("OrInPlace lost bits")
	}
	if b.Test(3) {
		t.Error("OrInPlace mutated argument")
	}
}

func TestAndInPlace(t *testing.T) {
	a := New(70)
	b := New(70)
	a.Set(3)
	a.Set(65)
	b.Set(65)
	b.Set(69)
	a.AndInPlace(b)
	if a.Test(3) || !a.Test(65) || a.Test(69) || a.PopCount() != 1 {
		t.Errorf("AndInPlace kept %d bits, want only bit 65", a.PopCount())
	}
	if !b.Test(69) || b.PopCount() != 2 {
		t.Error("AndInPlace mutated argument")
	}
}

func TestIntersects(t *testing.T) {
	a := New(128)
	b := New(128)
	a.Set(100)
	b.Set(101)
	if a.Intersects(b) {
		t.Error("disjoint vectors intersect")
	}
	b.Set(100)
	if !a.Intersects(b) {
		t.Error("overlapping vectors do not intersect")
	}
}

func TestIntersectsAll(t *testing.T) {
	a := New(64)
	b := New(64)
	c := New(64)
	a.Set(5)
	b.Set(5)
	c.Set(5)
	if !a.IntersectsAll(b, c) {
		t.Error("common bit should intersect all")
	}
	c2 := New(64)
	c2.Set(6)
	if a.IntersectsAll(b, c2) {
		t.Error("no common bit across all three")
	}
	// Pairwise overlap without a common bit must fail: the AND chain is
	// the four-way test of Fig. 4.
	x := New(64)
	y := New(64)
	z := New(64)
	x.Set(1)
	x.Set(2)
	y.Set(1)
	z.Set(2)
	if x.IntersectsAll(y, z) {
		t.Error("AND chain requires one bit common to every vector")
	}
}

func TestWidthMismatchPanics(t *testing.T) {
	a, b := New(64), New(65)
	for _, f := range []func(){
		func() { a.OrInPlace(b) },
		func() { a.AndInPlace(b) },
		func() { a.Intersects(b) },
		func() { a.IntersectsAll(b) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestCloneAndReset(t *testing.T) {
	a := New(32)
	a.Set(7)
	c := a.Clone()
	c.Set(8)
	if a.Test(8) {
		t.Error("Clone aliases original")
	}
	a.Reset()
	if a.PopCount() != 0 {
		t.Error("Reset left bits")
	}
}

func TestFromWordsRoundTrip(t *testing.T) {
	a := New(130)
	a.Set(0)
	a.Set(129)
	b, err := FromWords(130, a.Words())
	if err != nil {
		t.Fatal(err)
	}
	if !b.Test(0) || !b.Test(129) || b.PopCount() != 2 {
		t.Error("round trip lost bits")
	}
	if _, err := FromWords(130, a.Words()[:1]); err == nil {
		t.Error("wrong word count should error")
	}
}

func TestHashRangesAndDeterminism(t *testing.T) {
	for b := 1; b <= 300; b += 37 {
		for g := gene.ID(-5); g < 50; g += 7 {
			h := HashGene(g, b)
			if h < 0 || h >= b {
				t.Fatalf("HashGene(%d, %d) = %d", g, b, h)
			}
			if h != HashGene(g, b) {
				t.Fatal("HashGene not deterministic")
			}
		}
		for s := -3; s < 40; s += 5 {
			h := HashSource(s, b)
			if h < 0 || h >= b {
				t.Fatalf("HashSource(%d, %d) = %d", s, b, h)
			}
		}
	}
}

func TestGeneAndSourceHashesDiffer(t *testing.T) {
	// Different salts: the two hash families should disagree somewhere.
	same := 0
	for i := 0; i < 100; i++ {
		if HashGene(gene.ID(i), 1024) == HashSource(i, 1024) {
			same++
		}
	}
	if same > 20 {
		t.Errorf("hash families collide on %d of 100 keys", same)
	}
}

// TestSignatureNoFalseNegatives is the filter contract: a signature always
// contains every member's bit.
func TestSignatureNoFalseNegatives(t *testing.T) {
	f := func(raw []int16) bool {
		genes := make([]gene.ID, len(raw))
		sources := make([]int, len(raw))
		for i, r := range raw {
			genes[i] = gene.ID(r)
			sources[i] = int(r)
		}
		gs := GeneSignature(256, genes...)
		ss := SourceSignature(256, sources...)
		for i := range genes {
			if !gs.Test(HashGene(genes[i], 256)) {
				return false
			}
			if !ss.Test(HashSource(sources[i], 256)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestInvertedFile(t *testing.T) {
	f := NewInvertedFile(128)
	if f.Bits() != 128 {
		t.Fatalf("Bits = %d", f.Bits())
	}
	f.Add(7, 1)
	f.Add(7, 2)
	f.Add(9, 3)
	sig := f.Sources(7)
	if !sig.Test(HashSource(1, 128)) || !sig.Test(HashSource(2, 128)) {
		t.Error("IF lost source bits")
	}
	if f.Sources(9).Test(HashSource(1, 128)) && HashSource(1, 128) != HashSource(3, 128) {
		t.Error("IF leaked a source into the wrong gene")
	}
	if f.Genes() != 2 {
		t.Errorf("Genes = %d", f.Genes())
	}
	unknown := f.Sources(99)
	if unknown.PopCount() != 0 {
		t.Error("unknown gene should map to the zero signature")
	}
}
