package grnclust

import (
	"testing"

	"github.com/imgrn/imgrn/internal/gene"
	"github.com/imgrn/imgrn/internal/randgen"
	"github.com/imgrn/imgrn/internal/vecmath"
)

// plantedDB builds 2·perFamily matrices over a shared 4-gene panel with
// two distinct wirings: family 0 has gene0→gene1, family 1 has
// gene0→gene2. Returns the database and ground-truth family labels.
func plantedDB(t *testing.T, perFamily int, seed uint64) (*gene.Database, []int) {
	t.Helper()
	rng := randgen.New(seed)
	db := gene.NewDatabase()
	var labels []int
	for src := 0; src < 2*perFamily; src++ {
		family := src / perFamily
		labels = append(labels, family)
		l := 20 + rng.Intn(8)
		g0 := make([]float64, l)
		g1 := make([]float64, l)
		g2 := make([]float64, l)
		g3 := make([]float64, l)
		for i := 0; i < l; i++ {
			g0[i] = rng.Gaussian(0, 1)
			if family == 0 {
				g1[i] = 0.95*g0[i] + 0.2*rng.Gaussian(0, 1)
				g2[i] = rng.Gaussian(0, 1)
			} else {
				g2[i] = 0.95*g0[i] + 0.2*rng.Gaussian(0, 1)
				g1[i] = rng.Gaussian(0, 1)
			}
			g3[i] = rng.Gaussian(0, 1)
		}
		m, err := gene.NewMatrix(src, []gene.ID{0, 1, 2, 3}, [][]float64{g0, g1, g2, g3})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Add(m); err != nil {
			t.Fatal(err)
		}
	}
	return db, labels
}

func TestDistanceSeparatesFamilies(t *testing.T) {
	db, _ := plantedDB(t, 3, 1)
	within, err := Distance(db.Matrix(0), db.Matrix(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	across, err := Distance(db.Matrix(0), db.Matrix(3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if within >= across {
		t.Errorf("within-family distance %v >= across-family %v", within, across)
	}
}

func TestDistanceDisjointGenes(t *testing.T) {
	a, _ := gene.NewMatrix(0, []gene.ID{1, 2}, [][]float64{{1, 2, 3}, {3, 1, 2}})
	b, _ := gene.NewMatrix(1, []gene.ID{7, 8}, [][]float64{{1, 2, 3}, {3, 1, 2}})
	d, err := Distance(a, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d != 1 {
		t.Errorf("disjoint sources distance = %v, want 1", d)
	}
}

func TestDistanceSelfIsSmall(t *testing.T) {
	db, _ := plantedDB(t, 1, 2)
	d, err := Distance(db.Matrix(0), db.Matrix(0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Errorf("self distance = %v, want 0", d)
	}
}

func TestKMedoidsRecoversFamilies(t *testing.T) {
	db, labels := plantedDB(t, 6, 3)
	dm, err := DistanceMatrix(db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := KMedoids(dm, 2, 4, randgen.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if p := Purity(res.Assign, labels); p < 0.9 {
		t.Errorf("k-medoids purity = %v", p)
	}
	if len(res.Medoids) != 2 || res.K() != 2 {
		t.Errorf("medoids = %v", res.Medoids)
	}
	for _, m := range res.Medoids {
		if m < 0 || m >= db.Len() {
			t.Errorf("medoid %d out of range", m)
		}
	}
}

func TestAgglomerativeRecoversFamilies(t *testing.T) {
	db, labels := plantedDB(t, 6, 5)
	dm, err := DistanceMatrix(db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Agglomerative(dm, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p := Purity(res.Assign, labels); p < 0.9 {
		t.Errorf("agglomerative purity = %v", p)
	}
}

func TestClusteringValidation(t *testing.T) {
	dm := vecmath.NewMatrix(3, 3)
	if _, err := KMedoids(dm, 0, 1, randgen.New(1)); err == nil {
		t.Error("k=0 should error")
	}
	if _, err := KMedoids(dm, 4, 1, randgen.New(1)); err == nil {
		t.Error("k>n should error")
	}
	if _, err := Agglomerative(dm, 0); err == nil {
		t.Error("k=0 should error")
	}
	if _, err := Agglomerative(vecmath.NewMatrix(2, 3), 1); err == nil {
		t.Error("non-square matrix should error")
	}
}

func TestKMedoidsSingleCluster(t *testing.T) {
	db, _ := plantedDB(t, 2, 6)
	dm, err := DistanceMatrix(db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := KMedoids(dm, 1, 2, randgen.New(7))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Assign {
		if c != 0 {
			t.Error("single-cluster assignment wrong")
		}
	}
}

func TestPurity(t *testing.T) {
	if p := Purity([]int{0, 0, 1, 1}, []int{5, 5, 9, 9}); p != 1 {
		t.Errorf("perfect purity = %v", p)
	}
	if p := Purity([]int{0, 0, 0, 0}, []int{1, 1, 2, 2}); p != 0.5 {
		t.Errorf("merged purity = %v", p)
	}
	if p := Purity(nil, nil); p != 0 {
		t.Errorf("empty purity = %v", p)
	}
	if p := Purity([]int{0}, []int{0, 1}); p != 0 {
		t.Errorf("mismatched lengths purity = %v", p)
	}
}
