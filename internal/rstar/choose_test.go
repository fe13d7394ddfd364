package rstar

import (
	"testing"

	"github.com/imgrn/imgrn/internal/randgen"
)

// chooseSubtreeReference is the unpruned R* ChooseSubtree: for a leaf
// parent every entry sums its overlap enlargement against every other
// entry (overlapDeltas), allocating each enlarged MBR with Union.
// chooseSubtree must pick the same index on every node.
func chooseSubtreeReference(n *Node, r Rect) int {
	best := 0
	if n.level == 1 {
		deltas := overlapDeltas(n, r)
		bestOverlap, bestEnl, bestArea := 0.0, 0.0, 0.0
		for i, e := range n.entries {
			overlapDelta := deltas[i]
			enl := Union(e.mbr, r).Area() - e.mbr.Area()
			area := e.mbr.Area()
			if i == 0 || overlapDelta < bestOverlap ||
				(overlapDelta == bestOverlap && (enl < bestEnl ||
					(enl == bestEnl && area < bestArea))) {
				best, bestOverlap, bestEnl, bestArea = i, overlapDelta, enl, area
			}
		}
		return best
	}
	bestEnl, bestArea := 0.0, 0.0
	for i, e := range n.entries {
		enl := e.mbr.Enlargement(r)
		area := e.mbr.Area()
		if i == 0 || enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = i, enl, area
		}
	}
	return best
}

// overlapDeltas returns each entry's overlap enlargement for r, summed in
// entry order over every other entry: the leaf-parent rule's first
// criterion, unpruned.
func overlapDeltas(n *Node, r Rect) []float64 {
	out := make([]float64, len(n.entries))
	for i, e := range n.entries {
		grown := Union(e.mbr, r)
		var sum float64
		for j, o := range n.entries {
			if j != i {
				sum += OverlapArea(grown, o.mbr) - OverlapArea(e.mbr, o.mbr)
			}
		}
		out[i] = sum
	}
	return out
}

// randomChoiceCase builds a node at the given level whose entry MBRs sit
// on a small integer grid (so overlap sums, enlargements and areas tie
// exactly and often), or on a continuous range when smooth is set. The
// last axis plays the index's gene-ID axis: it has zero extent with
// probability 1/2. About one entry in five duplicates an earlier MBR. The
// inserted rectangle is a point half of the time.
func randomChoiceCase(rng *randgen.Rand, level, dim, fill int, smooth bool) (*Node, Rect) {
	coord := func() float64 {
		if smooth {
			return rng.UniformIn(0, 8)
		}
		return float64(rng.IntIn(0, 6))
	}
	span := func() float64 {
		if smooth {
			return rng.UniformIn(0, 4)
		}
		return float64(rng.IntIn(0, 4))
	}
	randRect := func(point bool) Rect {
		r := EmptyRect(dim)
		for d := 0; d < dim; d++ {
			r.Min[d] = coord()
			r.Max[d] = r.Min[d]
			if !point && (d < dim-1 || rng.Intn(2) == 0) {
				r.Max[d] += span()
			}
		}
		return r
	}
	n := &Node{level: level}
	for i := 0; i < fill; i++ {
		if i > 0 && rng.Intn(5) == 0 {
			n.entries = append(n.entries, entry{mbr: n.entries[rng.Intn(i)].mbr.Clone()})
			continue
		}
		n.entries = append(n.entries, entry{mbr: randRect(false)})
	}
	return n, randRect(rng.Intn(2) == 0)
}

// TestChooseSubtreeMatchesReference checks the pruned ChooseSubtree
// against the unpruned reference on random leaf-parent and internal
// nodes, and that the fixture reaches the cases the pruning must get
// right: ties on overlap enlargement decided by area enlargement or area,
// ties at a positive overlap, and exact duplicates decided by index.
func TestChooseSubtreeMatchesReference(t *testing.T) {
	rng := randgen.New(34)
	var overlapTies, positiveTies, indexTies int
	for c := 0; c < 20000; c++ {
		dim := []int{2, 3, 5}[rng.Intn(3)]
		tree, err := NewTree(Config{Dim: dim})
		if err != nil {
			t.Fatal(err)
		}
		level := 1
		if c%8 == 0 {
			level = 2
		}
		n, r := randomChoiceCase(rng, level, dim, rng.IntIn(2, 33), c%4 == 3)
		want := chooseSubtreeReference(n, r)
		if got := tree.chooseSubtree(n, r); got != want {
			t.Fatalf("case %d (level %d, dim %d, %d entries): chose %d, reference %d\nr=%v",
				c, level, dim, len(n.entries), got, want, r)
		}
		if level != 1 {
			continue
		}
		deltas := overlapDeltas(n, r)
		for i, d := range deltas {
			if i == want || d != deltas[want] {
				continue
			}
			overlapTies++
			if d > 0 {
				positiveTies++
			}
			if i > want && n.entries[i].mbr.Area() == n.entries[want].mbr.Area() &&
				Union(n.entries[i].mbr, r).Area() == Union(n.entries[want].mbr, r).Area() {
				indexTies++
			}
		}
	}
	if overlapTies < 10000 || positiveTies < 100 || indexTies < 1000 {
		t.Fatalf("fixture too easy: %d overlap ties, %d at a positive overlap, %d full ties",
			overlapTies, positiveTies, indexTies)
	}
}
