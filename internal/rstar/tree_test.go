package rstar

import (
	"testing"
	"testing/quick"

	"github.com/imgrn/imgrn/internal/pagestore"
	"github.com/imgrn/imgrn/internal/randgen"
)

func randomItems(rng *randgen.Rand, n, dim int) []Item {
	items := make([]Item, n)
	for i := range items {
		p := make([]float64, dim)
		for d := range p {
			p[d] = rng.UniformIn(-100, 100)
		}
		items[i] = Item{Point: p, Ref: uint64(i)}
	}
	return items
}

func bruteSearch(items []Item, r Rect) map[uint64]bool {
	out := make(map[uint64]bool)
	for _, it := range items {
		if r.ContainsPoint(it.Point) {
			out[it.Ref] = true
		}
	}
	return out
}

func searchSet(t *Tree, r Rect) map[uint64]bool {
	out := make(map[uint64]bool)
	for _, it := range t.Search(r, nil) {
		out[it.Ref] = true
	}
	return out
}

func sameRefs(a, b map[uint64]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func TestNewTreeValidation(t *testing.T) {
	if _, err := NewTree(Config{Dim: 0}); err == nil {
		t.Error("zero dim should error")
	}
	if _, err := NewTree(Config{Dim: 2, MaxFill: 3}); err == nil {
		t.Error("tiny MaxFill should error")
	}
	if _, err := NewTree(Config{Dim: 2, MaxFill: 10, MinFill: 6}); err == nil {
		t.Error("MinFill > MaxFill/2 should error")
	}
}

func TestInsertSearchMatchesBruteForce(t *testing.T) {
	rng := randgen.New(100)
	tree, err := NewTree(Config{Dim: 3, MaxFill: 8})
	if err != nil {
		t.Fatal(err)
	}
	items := randomItems(rng, 500, 3)
	for _, it := range items {
		if err := tree.Insert(it); err != nil {
			t.Fatal(err)
		}
	}
	if tree.Size() != 500 {
		t.Fatalf("Size = %d", tree.Size())
	}
	if msg := tree.CheckInvariants(); msg != "" {
		t.Fatalf("invariants violated: %s", msg)
	}
	for q := 0; q < 50; q++ {
		lo := []float64{rng.UniformIn(-100, 50), rng.UniformIn(-100, 50), rng.UniformIn(-100, 50)}
		hi := []float64{lo[0] + rng.UniformIn(0, 80), lo[1] + rng.UniformIn(0, 80), lo[2] + rng.UniformIn(0, 80)}
		r := Rect{Min: lo, Max: hi}
		if !sameRefs(searchSet(tree, r), bruteSearch(items, r)) {
			t.Fatalf("query %d: search mismatch", q)
		}
	}
}

func TestInsertRejectsWrongDim(t *testing.T) {
	tree, _ := NewTree(Config{Dim: 2})
	if err := tree.Insert(Item{Point: []float64{1, 2, 3}}); err == nil {
		t.Error("wrong-dimension insert should error")
	}
}

func TestBulkLoadMatchesBruteForce(t *testing.T) {
	rng := randgen.New(101)
	tree, err := NewTree(Config{Dim: 2, MaxFill: 16})
	if err != nil {
		t.Fatal(err)
	}
	items := randomItems(rng, 2000, 2)
	if err := tree.BulkLoad(items); err != nil {
		t.Fatal(err)
	}
	if tree.Size() != 2000 {
		t.Fatalf("Size = %d", tree.Size())
	}
	if msg := tree.CheckInvariants(); msg != "" {
		t.Fatalf("invariants violated: %s", msg)
	}
	for q := 0; q < 50; q++ {
		lo := []float64{rng.UniformIn(-100, 50), rng.UniformIn(-100, 50)}
		hi := []float64{lo[0] + rng.UniformIn(0, 100), lo[1] + rng.UniformIn(0, 100)}
		r := Rect{Min: lo, Max: hi}
		if !sameRefs(searchSet(tree, r), bruteSearch(items, r)) {
			t.Fatalf("query %d: search mismatch", q)
		}
	}
}

func TestBulkLoadEmptyAndSingle(t *testing.T) {
	tree, _ := NewTree(Config{Dim: 2})
	if err := tree.BulkLoad(nil); err != nil {
		t.Fatal(err)
	}
	if tree.Size() != 0 || tree.Height() != 1 {
		t.Error("empty bulk load wrong")
	}
	if err := tree.BulkLoad([]Item{{Point: []float64{1, 1}, Ref: 9}}); err != nil {
		t.Fatal(err)
	}
	got := tree.Search(NewRect([]float64{1, 1}), nil)
	if len(got) != 1 || got[0].Ref != 9 {
		t.Errorf("single item search = %v", got)
	}
}

func TestBulkLoadRejectsWrongDim(t *testing.T) {
	tree, _ := NewTree(Config{Dim: 2})
	if err := tree.BulkLoad([]Item{{Point: []float64{1}}}); err == nil {
		t.Error("wrong-dimension bulk load should error")
	}
}

func TestHeightGrowsLogarithmically(t *testing.T) {
	rng := randgen.New(102)
	tree, _ := NewTree(Config{Dim: 2, MaxFill: 8})
	items := randomItems(rng, 1000, 2)
	for _, it := range items {
		tree.Insert(it)
	}
	h := tree.Height()
	if h < 3 || h > 7 {
		t.Errorf("height = %d for 1000 items at fanout 8", h)
	}
}

func TestDuplicatePointsSupported(t *testing.T) {
	tree, _ := NewTree(Config{Dim: 2, MaxFill: 4})
	for i := 0; i < 50; i++ {
		if err := tree.Insert(Item{Point: []float64{1, 1}, Ref: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(tree.Search(NewRect([]float64{1, 1}), nil)); got != 50 {
		t.Errorf("found %d duplicates, want 50", got)
	}
	if msg := tree.CheckInvariants(); msg != "" {
		t.Errorf("invariants violated: %s", msg)
	}
}

func TestWalkOrders(t *testing.T) {
	rng := randgen.New(103)
	tree, _ := NewTree(Config{Dim: 2, MaxFill: 6})
	tree.BulkLoad(randomItems(rng, 300, 2))
	// Walk: parents before children.
	depth := map[*Node]int{}
	order := []*Node{}
	tree.Walk(func(n *Node) bool {
		order = append(order, n)
		return true
	})
	depth[order[0]] = 0
	// Bottom-up: children before parents.
	seen := map[*Node]bool{}
	tree.WalkBottomUp(func(n *Node) {
		if !n.IsLeaf() {
			for i := 0; i < n.NumEntries(); i++ {
				if !seen[n.Child(i)] {
					t.Fatal("WalkBottomUp visited parent before child")
				}
			}
		}
		seen[n] = true
	})
	if len(seen) != tree.NodeCount() {
		t.Errorf("bottom-up visited %d nodes, tree has %d", len(seen), tree.NodeCount())
	}
}

func TestWalkPrune(t *testing.T) {
	rng := randgen.New(104)
	tree, _ := NewTree(Config{Dim: 2, MaxFill: 6})
	tree.BulkLoad(randomItems(rng, 300, 2))
	count := 0
	tree.Walk(func(n *Node) bool {
		count++
		return false // prune everything below the root
	})
	if count != 1 {
		t.Errorf("pruned walk visited %d nodes, want 1", count)
	}
}

func TestAssignPagesAndTouch(t *testing.T) {
	rng := randgen.New(105)
	tree, _ := NewTree(Config{Dim: 2, MaxFill: 8})
	tree.BulkLoad(randomItems(rng, 200, 2))
	acc := pagestore.New(512, 0)
	total := tree.AssignPages(acc)
	if total <= 0 {
		t.Fatal("no pages assigned")
	}
	root := tree.Root()
	if root.Pages() <= 0 {
		t.Fatal("root has no pages")
	}
	r := acc.NewReader()
	TouchNode(r, root)
	if got := r.Stats().Accesses; got != uint64(root.Pages()) {
		t.Errorf("touch accesses = %d, want %d", got, root.Pages())
	}
	// Nil reader and unassigned nodes are safe no-ops.
	TouchNode(nil, root)
	fresh, _ := NewTree(Config{Dim: 2})
	TouchNode(r, fresh.Root())
	if got := r.Stats().Accesses; got != uint64(root.Pages()) {
		t.Errorf("unassigned node charged: accesses = %d, want %d", got, root.Pages())
	}
}

func TestNodeAccessors(t *testing.T) {
	rng := randgen.New(106)
	tree, _ := NewTree(Config{Dim: 2, MaxFill: 6})
	tree.BulkLoad(randomItems(rng, 100, 2))
	root := tree.Root()
	if root.IsLeaf() {
		t.Fatal("100 items at fanout 6 should not fit one leaf")
	}
	if root.Level() != tree.Height()-1 {
		t.Errorf("root level = %d, height = %d", root.Level(), tree.Height())
	}
	for i := 0; i < root.NumEntries(); i++ {
		child := root.Child(i)
		if !root.EntryMBR(i).equal(child.MBR()) {
			t.Error("entry MBR is not the child's MBR")
		}
	}
}

// TestInsertSearchProperty drives random workloads through the tree.
func TestInsertSearchProperty(t *testing.T) {
	rng := randgen.New(107)
	f := func(seed uint64) bool {
		r := randgen.New(seed ^ rng.Uint64())
		dim := 1 + r.Intn(4)
		tree, err := NewTree(Config{Dim: dim, MaxFill: 4 + r.Intn(12)})
		if err != nil {
			return false
		}
		items := randomItems(r, 50+r.Intn(200), dim)
		if r.Float64() < 0.5 {
			if err := tree.BulkLoad(items); err != nil {
				return false
			}
		} else {
			for _, it := range items {
				if err := tree.Insert(it); err != nil {
					return false
				}
			}
		}
		if tree.CheckInvariants() != "" {
			return false
		}
		lo := make([]float64, dim)
		hi := make([]float64, dim)
		for d := 0; d < dim; d++ {
			lo[d] = r.UniformIn(-100, 50)
			hi[d] = lo[d] + r.UniformIn(0, 100)
		}
		rect := Rect{Min: lo, Max: hi}
		return sameRefs(searchSet(tree, rect), bruteSearch(items, rect))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMixedInsertAfterBulkLoad(t *testing.T) {
	rng := randgen.New(108)
	tree, _ := NewTree(Config{Dim: 2, MaxFill: 8})
	items := randomItems(rng, 300, 2)
	tree.BulkLoad(items[:200])
	for _, it := range items[200:] {
		if err := tree.Insert(it); err != nil {
			t.Fatal(err)
		}
	}
	if tree.Size() != 300 {
		t.Fatalf("Size = %d", tree.Size())
	}
	if msg := tree.CheckInvariants(); msg != "" {
		t.Fatalf("invariants violated: %s", msg)
	}
	all := Rect{Min: []float64{-1000, -1000}, Max: []float64{1000, 1000}}
	if got := len(tree.Search(all, nil)); got != 300 {
		t.Errorf("full search found %d", got)
	}
}
