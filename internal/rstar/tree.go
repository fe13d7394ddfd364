package rstar

import (
	"fmt"

	"github.com/imgrn/imgrn/internal/pagestore"
)

// Item is one indexed point with an opaque 64-bit payload reference (the
// IM-GRN index packs the data-source ID and column index into it).
type Item struct {
	Point []float64
	Ref   uint64
}

// Node is a read-only view of one tree node exposed to traversal code.
type Node struct {
	leaf    bool
	level   int // 0 = leaf
	entries []entry
	mbr     Rect

	// Page mapping for I/O accounting (assigned by AssignPages).
	page  pagestore.PageID
	pages int

	// Aug is an arbitrary augmentation attached by the index layer
	// (bit-vector signatures and leaf join tables in IM-GRN).
	Aug any

	// dirty: queued in Tree.dirty since the last TakeDirty. dead: detached
	// from the tree by a split, a condense or a root change.
	dirty, dead bool
}

type entry struct {
	mbr   Rect
	child *Node // nil at leaf level
	item  Item  // valid at leaf level
}

// IsLeaf reports whether n is a leaf.
func (n *Node) IsLeaf() bool { return n.leaf }

// Level returns the node level (leaves are level 0).
func (n *Node) Level() int { return n.level }

// NumEntries returns the number of entries in n.
func (n *Node) NumEntries() int { return len(n.entries) }

// EntryMBR returns the MBR of entry i.
func (n *Node) EntryMBR(i int) Rect { return n.entries[i].mbr }

// MBR returns the bounding rectangle of the whole node.
func (n *Node) MBR() Rect { return n.mbr }

// Child returns the child node of entry i (nil for leaves).
func (n *Node) Child(i int) *Node { return n.entries[i].child }

// Item returns the item of entry i (zero Item for internal nodes).
func (n *Node) Item(i int) Item { return n.entries[i].item }

// Page returns the first page assigned to this node (0 before AssignPages).
func (n *Node) Page() pagestore.PageID { return n.page }

// Pages returns the page count assigned to this node.
func (n *Node) Pages() int { return n.pages }

func (n *Node) recomputeMBR() {
	if len(n.entries) == 0 {
		n.mbr = EmptyRect(n.mbr.Dims())
		return
	}
	m := n.entries[0].mbr.Clone()
	for _, e := range n.entries[1:] {
		m.ExpandRect(e.mbr)
	}
	n.mbr = m
}

// Tree is an R*-tree over k-dimensional points.
type Tree struct {
	dim         int
	minFill     int
	maxFill     int
	axisOrder   []int
	primaryFull bool
	root        *Node
	size        int

	// reinsertLevels tracks which levels already performed a forced
	// reinsertion during the current insert (R* OverflowTreatment).
	reinsertLevels map[int]bool
	reinserting    bool

	// dirty lists, in first-touch order, the nodes Insert and Delete have
	// created or changed since the last TakeDirty (see dirty.go).
	dirty []*Node
}

// DefaultMaxFill is the default node capacity M; the R* paper recommends
// m = 40%·M, which Config applies when MinFill is zero.
const DefaultMaxFill = 32

// Config parameterizes a tree.
type Config struct {
	Dim     int // point dimensionality (required)
	MaxFill int // node capacity M (DefaultMaxFill when 0)
	MinFill int // minimum fill m (40% of MaxFill when 0)
	// AxisOrder optionally reorders the dimensions STR bulk loading
	// partitions by (a permutation of 0..Dim-1). Putting a
	// high-selectivity dimension first (e.g. the gene-ID coordinate of
	// the IM-GRN index) clusters equal values into few leaves, so MBR
	// range tests on that dimension prune most of the tree.
	AxisOrder []int
	// PrimaryAxisFull makes bulk loading sort *entirely* by the first
	// axis of AxisOrder (sequential packing, no slab recursion), so every
	// node spans the tightest possible range of that dimension. This is
	// the paper's "group genes with the same IDs together" layout.
	PrimaryAxisFull bool
}

// NewTree returns an empty R*-tree.
func NewTree(cfg Config) (*Tree, error) {
	if cfg.Dim <= 0 {
		return nil, fmt.Errorf("rstar: dimension must be positive, got %d", cfg.Dim)
	}
	if cfg.MaxFill == 0 {
		cfg.MaxFill = DefaultMaxFill
	}
	if cfg.MaxFill < 4 {
		return nil, fmt.Errorf("rstar: MaxFill must be >= 4, got %d", cfg.MaxFill)
	}
	if cfg.MinFill == 0 {
		cfg.MinFill = cfg.MaxFill * 2 / 5
	}
	if cfg.MinFill < 1 || cfg.MinFill > cfg.MaxFill/2 {
		return nil, fmt.Errorf("rstar: MinFill %d out of range [1,%d]", cfg.MinFill, cfg.MaxFill/2)
	}
	if cfg.AxisOrder != nil {
		if len(cfg.AxisOrder) != cfg.Dim {
			return nil, fmt.Errorf("rstar: AxisOrder has %d entries for %d dims", len(cfg.AxisOrder), cfg.Dim)
		}
		seen := make([]bool, cfg.Dim)
		for _, a := range cfg.AxisOrder {
			if a < 0 || a >= cfg.Dim || seen[a] {
				return nil, fmt.Errorf("rstar: AxisOrder %v is not a permutation of 0..%d", cfg.AxisOrder, cfg.Dim-1)
			}
			seen[a] = true
		}
	}
	t := &Tree{
		dim: cfg.Dim, minFill: cfg.MinFill, maxFill: cfg.MaxFill,
		axisOrder: cfg.AxisOrder, primaryFull: cfg.PrimaryAxisFull,
	}
	t.root = t.newNode(true, 0)
	return t, nil
}

// axisAt returns the STR partition axis for recursion depth `depth`.
func (t *Tree) axisAt(depth int) int {
	if t.axisOrder != nil {
		return t.axisOrder[depth]
	}
	return depth
}

func (t *Tree) newNode(leaf bool, level int) *Node {
	return &Node{leaf: leaf, level: level, mbr: EmptyRect(t.dim)}
}

// Dim returns the point dimensionality.
func (t *Tree) Dim() int { return t.dim }

// Size returns the number of stored items.
func (t *Tree) Size() int { return t.size }

// Height returns the number of levels (1 for a root-only tree).
func (t *Tree) Height() int { return t.root.level + 1 }

// Root returns the root node for custom traversals.
func (t *Tree) Root() *Node { return t.root }

// Insert adds an item using the R* insertion algorithm (ChooseSubtree,
// forced reinsertion, R* split).
func (t *Tree) Insert(it Item) error {
	if len(it.Point) != t.dim {
		return fmt.Errorf("rstar: point has %d dims, tree has %d", len(it.Point), t.dim)
	}
	t.reinsertLevels = make(map[int]bool)
	t.insertEntry(entry{mbr: NewRect(it.Point), item: it}, 0)
	t.size++
	return nil
}

// insertEntry places e at the given target level (0 = leaf).
func (t *Tree) insertEntry(e entry, level int) {
	leafPath := t.choosePath(e.mbr, level)
	t.markPath(leafPath)
	n := leafPath[len(leafPath)-1]
	n.entries = append(n.entries, e)
	n.mbr.ExpandRect(e.mbr)
	if len(n.entries) > t.maxFill {
		t.overflow(leafPath)
	} else {
		t.adjustUpward(leafPath)
	}
}

// choosePath descends from the root to the node at the target level using
// the R* ChooseSubtree criterion and returns the path (root..target).
func (t *Tree) choosePath(r Rect, level int) []*Node {
	path := []*Node{t.root}
	n := t.root
	for n.level > level {
		best := t.chooseSubtree(n, r)
		n = n.entries[best].child
		path = append(path, n)
	}
	return path
}

// chooseSubtree picks the entry of n to descend into for rectangle r:
// minimum overlap enlargement when children are leaves, minimum area
// enlargement otherwise (ties break to smaller area).
func (t *Tree) chooseSubtree(n *Node, r Rect) int {
	childrenAreLeaves := n.level == 1
	best := 0
	if childrenAreLeaves {
		bestOverlap, bestEnl, bestArea := 0.0, 0.0, 0.0
		for i, e := range n.entries {
			grown := Union(e.mbr, r)
			var overlapDelta float64
			for j, o := range n.entries {
				if j == i {
					continue
				}
				overlapDelta += OverlapArea(grown, o.mbr) - OverlapArea(e.mbr, o.mbr)
			}
			enl := grown.Area() - e.mbr.Area()
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

// adjustUpward refreshes MBRs along the path after an entry change.
func (t *Tree) adjustUpward(path []*Node) {
	for i := len(path) - 1; i >= 0; i-- {
		path[i].recomputeMBR()
		if i > 0 {
			parent := path[i-1]
			for j := range parent.entries {
				if parent.entries[j].child == path[i] {
					parent.entries[j].mbr = path[i].mbr.Clone()
					break
				}
			}
		}
	}
}

// reinsertFraction is the R* forced-reinsert share p = 30%.
const reinsertFraction = 0.3

// overflow applies R* OverflowTreatment to the last node of path.
func (t *Tree) overflow(path []*Node) {
	n := path[len(path)-1]
	isRoot := n == t.root
	if !isRoot && !t.reinserting && !t.reinsertLevels[n.level] {
		t.reinsertLevels[n.level] = true
		t.forcedReinsert(path)
		return
	}
	t.split(path)
}

// forcedReinsert removes the p·M entries of n whose centers are farthest
// from the node center and reinserts them at the same level.
func (t *Tree) forcedReinsert(path []*Node) {
	n := path[len(path)-1]
	p := int(reinsertFraction * float64(len(n.entries)))
	if p < 1 {
		p = 1
	}
	center := n.mbr
	// Selection-sort the p farthest entries to the back (M is small).
	type distEntry struct {
		d float64
		e entry
	}
	ds := make([]distEntry, len(n.entries))
	for i, e := range n.entries {
		ds[i] = distEntry{CenterDistance2(e.mbr, center), e}
	}
	// Sort ascending by distance; the tail p entries get reinserted.
	for i := 1; i < len(ds); i++ {
		for j := i; j > 0 && ds[j].d < ds[j-1].d; j-- {
			ds[j], ds[j-1] = ds[j-1], ds[j]
		}
	}
	keep := ds[:len(ds)-p]
	evicted := ds[len(ds)-p:]
	n.entries = n.entries[:0]
	for _, de := range keep {
		n.entries = append(n.entries, de.e)
	}
	t.adjustUpward(path)
	t.reinserting = true
	for _, de := range evicted {
		t.insertEntry(de.e, n.level)
	}
	t.reinserting = false
}

// split performs the R* split of the overflowing last node of path,
// propagating upward as needed.
func (t *Tree) split(path []*Node) {
	n := path[len(path)-1]
	left, right := t.rstarSplit(n)
	n.dead = true
	t.markDirty(left)
	t.markDirty(right)
	if n == t.root {
		newRoot := t.newNode(false, n.level+1)
		t.markDirty(newRoot)
		newRoot.entries = append(newRoot.entries,
			entry{mbr: left.mbr.Clone(), child: left},
			entry{mbr: right.mbr.Clone(), child: right},
		)
		newRoot.recomputeMBR()
		t.root = newRoot
		return
	}
	parent := path[len(path)-2]
	for j := range parent.entries {
		if parent.entries[j].child == n {
			parent.entries[j] = entry{mbr: left.mbr.Clone(), child: left}
			break
		}
	}
	parent.entries = append(parent.entries, entry{mbr: right.mbr.Clone(), child: right})
	if len(parent.entries) > t.maxFill {
		t.overflow(path[:len(path)-1])
	} else {
		t.adjustUpward(path[:len(path)-1])
	}
}

// rstarSplit distributes the entries of n into two nodes using the R*
// axis/index selection: minimize margin sum over candidate axes, then
// minimize overlap (ties: area) over candidate distributions.
func (t *Tree) rstarSplit(n *Node) (left, right *Node) {
	entries := n.entries
	m := t.minFill
	M := len(entries) - 1 // capacity before overflow

	bestAxis, bestKind := -1, 0 // kind 0: sort by Min, 1: sort by Max
	bestMargin := 0.0
	for axis := 0; axis < t.dim; axis++ {
		for kind := 0; kind < 2; kind++ {
			sortEntriesByAxis(entries, axis, kind == 1)
			margin := 0.0
			for k := m; k <= M-m+1; k++ {
				lm, rm := groupMBRs(entries, k)
				margin += lm.Margin() + rm.Margin()
			}
			if bestAxis < 0 || margin < bestMargin {
				bestAxis, bestKind, bestMargin = axis, kind, margin
			}
		}
	}
	sortEntriesByAxis(entries, bestAxis, bestKind == 1)
	bestK := m
	bestOverlap, bestArea := 0.0, 0.0
	for k := m; k <= M-m+1; k++ {
		lm, rm := groupMBRs(entries, k)
		ov := OverlapArea(lm, rm)
		ar := lm.Area() + rm.Area()
		if k == m || ov < bestOverlap || (ov == bestOverlap && ar < bestArea) {
			bestK, bestOverlap, bestArea = k, ov, ar
		}
	}
	left = t.newNode(n.leaf, n.level)
	right = t.newNode(n.leaf, n.level)
	left.entries = append(left.entries, entries[:bestK]...)
	right.entries = append(right.entries, entries[bestK:]...)
	left.recomputeMBR()
	right.recomputeMBR()
	return left, right
}

func sortEntriesByAxis(es []entry, axis int, byMax bool) {
	key := func(e entry) float64 {
		if byMax {
			return e.mbr.Max[axis]
		}
		return e.mbr.Min[axis]
	}
	// Insertion sort: M is small (≤ a few dozen) and inputs are
	// near-sorted across the axis loop.
	for i := 1; i < len(es); i++ {
		for j := i; j > 0 && key(es[j]) < key(es[j-1]); j-- {
			es[j], es[j-1] = es[j-1], es[j]
		}
	}
}

func groupMBRs(es []entry, k int) (Rect, Rect) {
	lm := es[0].mbr.Clone()
	for _, e := range es[1:k] {
		lm.ExpandRect(e.mbr)
	}
	rm := es[k].mbr.Clone()
	for _, e := range es[k+1:] {
		rm.ExpandRect(e.mbr)
	}
	return lm, rm
}
