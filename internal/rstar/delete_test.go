package rstar

import (
	"testing"
	"testing/quick"

	"github.com/imgrn/imgrn/internal/randgen"
)

func TestDeleteBasic(t *testing.T) {
	rng := randgen.New(200)
	tree, _ := NewTree(Config{Dim: 2, MaxFill: 6})
	items := randomItems(rng, 200, 2)
	for _, it := range items {
		tree.Insert(it)
	}
	// Delete half of them.
	for _, it := range items[:100] {
		if !tree.Delete(it) {
			t.Fatalf("failed to delete %v", it.Ref)
		}
	}
	if tree.Size() != 100 {
		t.Fatalf("Size = %d", tree.Size())
	}
	if msg := tree.CheckInvariants(); msg != "" {
		t.Fatalf("invariants after delete: %s", msg)
	}
	// Remaining items stay findable; deleted ones are gone.
	all := Rect{Min: []float64{-1000, -1000}, Max: []float64{1000, 1000}}
	found := searchSet(tree, all)
	for _, it := range items[:100] {
		if found[it.Ref] {
			t.Errorf("deleted item %d still present", it.Ref)
		}
	}
	for _, it := range items[100:] {
		if !found[it.Ref] {
			t.Errorf("surviving item %d lost", it.Ref)
		}
	}
}

func TestDeleteMissing(t *testing.T) {
	rng := randgen.New(201)
	tree, _ := NewTree(Config{Dim: 2, MaxFill: 6})
	items := randomItems(rng, 50, 2)
	for _, it := range items {
		tree.Insert(it)
	}
	if tree.Delete(Item{Point: []float64{9999, 9999}, Ref: 1}) {
		t.Error("deleted a non-existent point")
	}
	if tree.Delete(Item{Point: items[0].Point, Ref: 99999}) {
		t.Error("deleted with mismatched ref")
	}
	if tree.Delete(Item{Point: []float64{1}, Ref: 0}) {
		t.Error("deleted with wrong dimensionality")
	}
	if tree.Size() != 50 {
		t.Errorf("Size changed: %d", tree.Size())
	}
}

func TestDeleteAll(t *testing.T) {
	rng := randgen.New(202)
	tree, _ := NewTree(Config{Dim: 3, MaxFill: 4})
	items := randomItems(rng, 120, 3)
	for _, it := range items {
		tree.Insert(it)
	}
	for _, it := range items {
		if !tree.Delete(it) {
			t.Fatalf("failed to delete %d", it.Ref)
		}
	}
	if tree.Size() != 0 {
		t.Fatalf("Size = %d after deleting everything", tree.Size())
	}
	if tree.Height() != 1 {
		t.Errorf("height = %d, want 1 (empty root)", tree.Height())
	}
	// The tree remains usable.
	if err := tree.Insert(items[0]); err != nil {
		t.Fatal(err)
	}
	if got := len(tree.Search(NewRect(items[0].Point), nil)); got != 1 {
		t.Errorf("reinserted item not found")
	}
}

func TestDeleteFromBulkLoaded(t *testing.T) {
	rng := randgen.New(203)
	tree, _ := NewTree(Config{Dim: 2, MaxFill: 8})
	items := randomItems(rng, 500, 2)
	tree.BulkLoad(items)
	for i := 0; i < 250; i++ {
		if !tree.Delete(items[i*2]) {
			t.Fatalf("delete %d failed", i*2)
		}
	}
	if tree.Size() != 250 {
		t.Fatalf("Size = %d", tree.Size())
	}
	if msg := tree.CheckInvariants(); msg != "" {
		t.Fatalf("invariants: %s", msg)
	}
}

// TestInsertDeleteSearchProperty interleaves random inserts and deletes and
// cross-checks search results against a model map. The primary coordinate
// takes few values and references arrive out of order, so inserts land
// inside runs of equal primary coordinates, and every split rule runs.
func TestInsertDeleteSearchProperty(t *testing.T) {
	rng := randgen.New(204)
	f := func(seed uint64) bool {
		r := randgen.New(seed ^ rng.Uint64())
		dim := 1 + r.Intn(3)
		tree, err := NewTree(Config{Dim: dim, MaxFill: 4 + r.Intn(8)})
		if err != nil {
			return false
		}
		model := make(map[uint64]Item)
		for op := 0; op < 200; op++ {
			if r.Float64() < 0.6 || len(model) == 0 {
				p := make([]float64, dim)
				for d := range p {
					p[d] = r.UniformIn(-50, 50)
				}
				p[0] = float64(r.Intn(6))
				it := Item{Point: p, Ref: r.Uint64() % 1000}
				if _, dup := model[it.Ref]; dup {
					continue
				}
				if err := tree.Insert(it); err != nil {
					return false
				}
				model[it.Ref] = it
			} else {
				// Delete a random surviving item.
				for _, it := range model {
					if !tree.Delete(it) {
						return false
					}
					delete(model, it.Ref)
					break
				}
			}
		}
		if tree.Size() != len(model) {
			return false
		}
		if msg := tree.CheckInvariants(); msg != "" {
			t.Log(msg)
			return false
		}
		lo := make([]float64, dim)
		hi := make([]float64, dim)
		for d := 0; d < dim; d++ {
			lo[d] = r.UniformIn(-50, 0)
			hi[d] = lo[d] + r.UniformIn(0, 60)
		}
		rect := Rect{Min: lo, Max: hi}
		want := make(map[uint64]bool)
		for _, it := range model {
			if rect.ContainsPoint(it.Point) {
				want[it.Ref] = true
			}
		}
		return sameRefs(searchSet(tree, rect), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
