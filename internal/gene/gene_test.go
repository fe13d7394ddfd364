package gene

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"github.com/imgrn/imgrn/internal/randgen"
	"github.com/imgrn/imgrn/internal/vecmath"
)

func mustMatrix(t *testing.T, source int, ids []ID, cols [][]float64) *Matrix {
	t.Helper()
	m, err := NewMatrix(source, ids, cols)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func sampleMatrix(t *testing.T) *Matrix {
	return mustMatrix(t, 1, []ID{10, 20, 30}, [][]float64{
		{1, 2, 3, 4},
		{4, 3, 2, 1},
		{0, 1, 0, 1},
	})
}

func TestNewMatrixBasics(t *testing.T) {
	m := sampleMatrix(t)
	if m.NumGenes() != 3 || m.Samples() != 4 {
		t.Fatalf("shape = %dx%d", m.Samples(), m.NumGenes())
	}
	if m.Gene(1) != 20 {
		t.Errorf("Gene(1) = %d", m.Gene(1))
	}
	if m.IndexOf(30) != 2 || m.IndexOf(99) != -1 {
		t.Error("IndexOf wrong")
	}
	if !m.Has(10) || m.Has(11) {
		t.Error("Has wrong")
	}
}

func TestNewMatrixRejectsDuplicates(t *testing.T) {
	_, err := NewMatrix(1, []ID{5, 5}, [][]float64{{1, 2}, {3, 4}})
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("err = %v, want duplicate gene error", err)
	}
}

// TestGeneLookupMatchesLinearScan checks IndexOf, Has and ColumnsOf
// against a linear scan of the column labels on random matrices whose IDs
// include negatives and the int32 extremes, probing present and absent
// genes; and that a repeated ID is rejected with the error the map lookup
// gave: the gene whose second occurrence comes first in column order.
func TestGeneLookupMatchesLinearScan(t *testing.T) {
	rng := randgen.New(77)
	pool := []ID{math.MinInt32, math.MinInt32 + 1, -40, -3, -1, 0, 1, 2, 7, 19, 1 << 20, math.MaxInt32 - 1, math.MaxInt32}
	linear := func(ids []ID, g ID) int {
		for j, h := range ids {
			if h == g {
				return j
			}
		}
		return -1
	}
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(len(pool) + 1)
		ids := make([]ID, 0, n)
		for _, k := range rng.Perm(len(pool))[:n] {
			ids = append(ids, pool[k])
		}
		dup := trial%4 == 0 && n > 1
		if dup {
			// Repeat one or two earlier IDs at random later positions.
			for r := 1 + rng.Intn(2); r > 0; r-- {
				at := 1 + rng.Intn(len(ids)-1)
				ids[at] = ids[rng.Intn(at)]
			}
		}
		cols := make([][]float64, len(ids))
		for j := range cols {
			cols[j] = []float64{float64(j), 1}
		}
		m, err := NewMatrix(trial, ids, cols)
		seen := map[ID]bool{}
		var want error
		for _, g := range ids {
			if seen[g] {
				want = fmt.Errorf("gene: duplicate gene ID %d in source %d", g, trial)
				break
			}
			seen[g] = true
		}
		if want != nil {
			if err == nil || err.Error() != want.Error() {
				t.Fatalf("ids %v: err %v, want %v", ids, err, want)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		probes := append(append([]ID(nil), pool...), -2, 3, 1<<20+1)
		for _, g := range probes {
			if got, w := m.IndexOf(g), linear(ids, g); got != w || m.Has(g) != (w >= 0) {
				t.Fatalf("ids %v: IndexOf(%d) = %d, Has %v; want %d", ids, g, got, m.Has(g), w)
			}
		}
		// ColumnsOf over a random ascending subset of the probes.
		q := slices.Clone(probes)
		slices.Sort(q)
		q = slices.Compact(q)
		var sub []ID
		for _, g := range q {
			if rng.Float64() < 0.4 {
				sub = append(sub, g)
			}
		}
		dst := make([]int, len(sub))
		ok := m.ColumnsOf(sub, dst)
		wantOK := true
		for k, g := range sub {
			w := linear(ids, g)
			if w < 0 {
				wantOK = false
				break
			}
			if ok && dst[k] != w {
				t.Fatalf("ids %v: ColumnsOf(%v)[%d] = %d, want %d", ids, sub, k, dst[k], w)
			}
		}
		if ok != wantOK {
			t.Fatalf("ids %v: ColumnsOf(%v) = %v, want %v", ids, sub, ok, wantOK)
		}
	}
}

func TestNewMatrixRejectsRaggedColumns(t *testing.T) {
	_, err := NewMatrix(1, []ID{1, 2}, [][]float64{{1, 2}, {3}})
	if err == nil {
		t.Error("ragged columns should be rejected")
	}
}

func TestNewMatrixRejectsCountMismatch(t *testing.T) {
	_, err := NewMatrix(1, []ID{1}, [][]float64{{1}, {2}})
	if err == nil {
		t.Error("gene/column count mismatch should be rejected")
	}
}

func TestStandardizedColumns(t *testing.T) {
	m := sampleMatrix(t)
	for j := 0; j < m.NumGenes(); j++ {
		if !m.Informative(j) {
			t.Errorf("column %d should be informative", j)
		}
		if !vecmath.IsStandardized(m.StdCol(j), 1e-9) {
			t.Errorf("StdCol(%d) not standardized", j)
		}
	}
}

func TestConstantColumnUninformative(t *testing.T) {
	m := mustMatrix(t, 1, []ID{1, 2}, [][]float64{{5, 5, 5}, {1, 2, 3}})
	if m.Informative(0) {
		t.Error("constant column should be uninformative")
	}
	if !m.Informative(1) {
		t.Error("varied column should be informative")
	}
}

func TestNewMatrixFromRows(t *testing.T) {
	rows := vecmath.NewMatrix(2, 3)
	rows.Set(0, 0, 1)
	rows.Set(1, 0, 2)
	rows.Set(0, 2, 7)
	m, err := NewMatrixFromRows(5, []ID{1, 2, 3}, rows)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Col(0); got[0] != 1 || got[1] != 2 {
		t.Errorf("Col(0) = %v", got)
	}
	if got := m.Col(2); got[0] != 7 {
		t.Errorf("Col(2) = %v", got)
	}
}

func TestWithNoise(t *testing.T) {
	m := sampleMatrix(t)
	n := m.WithNoise(randgen.New(1), 0.5)
	if n.NumGenes() != m.NumGenes() || n.Samples() != m.Samples() {
		t.Fatal("noise changed shape")
	}
	changed := false
	for j := 0; j < m.NumGenes(); j++ {
		if n.Gene(j) != m.Gene(j) {
			t.Error("noise changed gene IDs")
		}
		for i := 0; i < m.Samples(); i++ {
			if n.Col(j)[i] != m.Col(j)[i] {
				changed = true
			}
		}
	}
	if !changed {
		t.Error("noise changed no value")
	}
}

func TestSubMatrix(t *testing.T) {
	m := sampleMatrix(t)
	s, err := m.SubMatrix(-1, []int{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if s.Source != -1 || s.NumGenes() != 2 {
		t.Fatalf("sub shape wrong: %+v", s)
	}
	if s.Gene(0) != 30 || s.Gene(1) != 10 {
		t.Errorf("sub genes = %v", s.Genes())
	}
	if s.Col(0)[1] != m.Col(2)[1] {
		t.Error("sub column data wrong")
	}
}

func TestSubMatrixOutOfRange(t *testing.T) {
	m := sampleMatrix(t)
	if _, err := m.SubMatrix(0, []int{5}); err == nil {
		t.Error("out-of-range column should error")
	}
}

func TestDatabase(t *testing.T) {
	db := NewDatabase()
	if db.Len() != 0 {
		t.Fatal("new database not empty")
	}
	m1 := mustMatrix(t, 1, []ID{1, 2}, [][]float64{{1, 2}, {3, 4}})
	m2 := mustMatrix(t, 2, []ID{2, 3}, [][]float64{{1, 2, 3}, {4, 5, 6}})
	if err := db.Add(m1); err != nil {
		t.Fatal(err)
	}
	if err := db.Add(m2); err != nil {
		t.Fatal(err)
	}
	if err := db.Add(m1); err == nil {
		t.Error("duplicate source should be rejected")
	}
	if db.Len() != 2 || db.Matrix(1) != m2 || db.BySource(1) != m1 {
		t.Error("database lookups wrong")
	}
	if db.BySource(42) != nil {
		t.Error("unknown source should be nil")
	}
	uni := db.GeneUniverse()
	if len(uni) != 3 || uni[0] != 1 || uni[2] != 3 {
		t.Errorf("universe = %v", uni)
	}
}

func TestDatabaseSummary(t *testing.T) {
	db := NewDatabase()
	if s := db.Summary(); s.Matrices != 0 {
		t.Error("empty summary wrong")
	}
	db.Add(mustMatrix(t, 1, []ID{1, 2}, [][]float64{{1, 2}, {3, 4}}))
	db.Add(mustMatrix(t, 2, []ID{2, 3, 4}, [][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}))
	s := db.Summary()
	if s.Matrices != 2 || s.TotalVectors != 5 {
		t.Errorf("summary = %+v", s)
	}
	if s.MinGenes != 2 || s.MaxGenes != 3 || s.MinSamples != 2 || s.MaxSamples != 3 {
		t.Errorf("summary ranges = %+v", s)
	}
	if s.DistinctGenes != 4 {
		t.Errorf("distinct genes = %d", s.DistinctGenes)
	}
}

func TestCatalog(t *testing.T) {
	c := NewCatalog()
	a := c.Intern("lexA")
	b := c.Intern("recA")
	if a == b {
		t.Fatal("distinct names share an ID")
	}
	if got := c.Intern("lexA"); got != a {
		t.Error("re-interning changed the ID")
	}
	if id, ok := c.Lookup("recA"); !ok || id != b {
		t.Error("Lookup failed")
	}
	if _, ok := c.Lookup("nope"); ok {
		t.Error("Lookup invented a gene")
	}
	if c.Name(a) != "lexA" {
		t.Errorf("Name(%d) = %q", a, c.Name(a))
	}
	if got := c.Name(999); got != "gene#999" {
		t.Errorf("unknown name = %q", got)
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d", c.Len())
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "lexA" {
		t.Errorf("Names = %v", names)
	}
}
