package rstar

import (
	"testing"

	"github.com/imgrn/imgrn/internal/randgen"
)

// subtreeSum is the test augmentation: the sum of the item references
// beneath a node, plus the entry order at leaves (a leaf whose entries were
// reordered must be reported too — the index layer stores entry positions).
type subtreeSum struct {
	sum   uint64
	order []uint64
}

func sumOf(n *Node) subtreeSum {
	var s subtreeSum
	for i := 0; i < n.NumEntries(); i++ {
		if n.IsLeaf() {
			ref := n.Item(i).Ref
			s.sum += ref
			s.order = append(s.order, ref)
		} else {
			s.sum += n.Child(i).Aug.(subtreeSum).sum
		}
	}
	return s
}

func sameSum(a, b subtreeSum) bool {
	if a.sum != b.sum || len(a.order) != len(b.order) {
		return false
	}
	for i := range a.order {
		if a.order[i] != b.order[i] {
			return false
		}
	}
	return true
}

// TestTakeDirtyCoversEveryChange drives random inserts and deletes and
// refreshes the augmentation of the reported nodes only; afterwards every
// live node must carry exactly the augmentation a full bottom-up pass
// computes. A node missing from the report keeps a stale (or nil) value
// and fails the comparison; a dead node in the report would be harmless
// but is checked against too.
func TestTakeDirtyCoversEveryChange(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		rng := randgen.New(900 + seed)
		tree, _ := NewTree(Config{Dim: 3, MaxFill: 4 + int(seed)})
		bulk := randomItems(rng, 150, 3)
		if err := tree.BulkLoad(bulk); err != nil {
			t.Fatal(err)
		}
		if d := tree.TakeDirty(); len(d) != 0 {
			t.Fatalf("seed %d: BulkLoad reported %d dirty nodes", seed, len(d))
		}
		tree.WalkBottomUp(func(n *Node) { n.Aug = sumOf(n) })

		live := append([]Item(nil), bulk...)
		next := uint64(1 << 20)
		for step := 0; step < 400; step++ {
			if len(live) == 0 || rng.Float64() < 0.55 {
				it := randomItems(rng, 1, 3)[0]
				it.Ref = next
				next++
				if err := tree.Insert(it); err != nil {
					t.Fatal(err)
				}
				live = append(live, it)
			} else {
				k := rng.Intn(len(live))
				if !tree.Delete(live[k]) {
					t.Fatalf("seed %d step %d: delete failed", seed, step)
				}
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			dirty := tree.TakeDirty()
			inTree := make(map[*Node]bool)
			tree.Walk(func(n *Node) bool { inTree[n] = true; return true })
			for i, n := range dirty {
				if !inTree[n] {
					t.Fatalf("seed %d step %d: detached node reported dirty", seed, step)
				}
				if i > 0 && dirty[i-1].Level() > n.Level() {
					t.Fatalf("seed %d step %d: dirty nodes not in ascending level order", seed, step)
				}
				n.Aug = sumOf(n)
			}
			tree.WalkBottomUp(func(n *Node) {
				got, ok := n.Aug.(subtreeSum)
				if !ok {
					t.Fatalf("seed %d step %d: level-%d node never augmented", seed, step, n.Level())
				}
				if !sameSum(got, sumOf(n)) {
					t.Fatalf("seed %d step %d: stale augmentation at level %d", seed, step, n.Level())
				}
			})
		}
		if d := tree.TakeDirty(); len(d) != 0 {
			t.Fatalf("seed %d: second TakeDirty returned %d nodes", seed, len(d))
		}
	}
}
