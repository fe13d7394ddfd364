package rstar

import (
	"fmt"
	"math"

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
	mbr   Rect  // an internal entry shares its child's MBR storage
	child *Node // nil at leaf level
	item  Item  // valid at leaf level
	first key   // the item's key, or the first key of the child's subtree
}

// key is the insertion order of a tree: the primary-axis coordinate, then
// the item reference. For the IM-GRN index that is (gene, source).
type key struct {
	c   float64
	ref uint64
}

func (a key) less(b key) bool { return a.c < b.c || (a.c == b.c && a.ref < b.ref) }

// compare is less as a three-way comparison, for the sorts of bulk loading.
func (a key) compare(b key) int {
	switch {
	case a.less(b):
		return -1
	case b.less(a):
		return 1
	}
	return 0
}

// upperBound returns the number of leading entries whose key is <= k.
func upperBound(es []entry, k key) int {
	lo, hi := 0, len(es)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if k.less(es[m].first) {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
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

// recomputeMBR rewrites n's MBR in place (its parent's entry shares it)
// as the bound of its entries.
func (n *Node) recomputeMBR() {
	m := n.mbr
	if len(n.entries) == 0 {
		for i := range m.Min {
			m.Min[i], m.Max[i] = math.Inf(1), math.Inf(-1)
		}
		return
	}
	copy(m.Min, n.entries[0].mbr.Min)
	copy(m.Max, n.entries[0].mbr.Max)
	for _, e := range n.entries[1:] {
		m.ExpandRect(e.mbr)
	}
}

// insertAt puts e at index i of n. A full entry array grows to hold one
// entry past the capacity, all a node ever holds before it splits.
func (t *Tree) insertAt(n *Node, i int, e entry) {
	if len(n.entries) == cap(n.entries) {
		n.entries = append(make([]entry, 0, max(len(n.entries)+1, t.maxFill+1)), n.entries...)
	}
	n.entries = n.entries[:len(n.entries)+1]
	copy(n.entries[i+1:], n.entries[i:])
	n.entries[i] = e
}

func (n *Node) removeAt(i int) {
	copy(n.entries[i:], n.entries[i+1:])
	n.entries[len(n.entries)-1] = entry{}
	n.entries = n.entries[:len(n.entries)-1]
}

// Tree is an R-tree over k-dimensional points whose entries are kept in
// key order (see key): bulk loading packs them in that order, an insert
// descends by key and splits where the order suggests, and a delete finds
// its leaf by key.
type Tree struct {
	dim         int
	minFill     int
	maxFill     int
	axisOrder   []int
	primaryFull bool
	root        *Node
	size        int
	nodes       int // live nodes: each newNode counts, each detached node is taken off

	// ordered is false after a BulkLoad that tiled by several axes (no
	// PrimaryAxisFull): its leaves are not in key order, so Delete finds
	// items by MBR containment instead of by key.
	ordered bool

	// old is writer-side scratch: Delete keeps a node's MBR from before a
	// recompute in it.
	old Rect

	// dirty lists, in first-touch order, the nodes Insert and Delete have
	// created or changed since the last TakeDirty (see dirty.go).
	dirty []*Node
}

// DefaultMaxFill is the default node capacity M; Config sets the minimum
// fill m to 40%·M, the R*-tree paper's choice, when MinFill is zero.
const DefaultMaxFill = 32

// Config parameterizes a tree.
type Config struct {
	Dim     int // point dimensionality (required)
	MaxFill int // node capacity M (DefaultMaxFill when 0)
	MinFill int // minimum fill m (40% of MaxFill when 0)
	// AxisOrder optionally reorders the dimensions STR bulk loading
	// partitions by (a permutation of 0..Dim-1). Its first axis is the
	// primary axis of the key order (axis 0 without AxisOrder). Putting a
	// high-selectivity dimension first (e.g. the gene-ID coordinate of
	// the IM-GRN index) clusters equal values into few leaves, so MBR
	// range tests on that dimension prune most of the tree.
	AxisOrder []int
	// PrimaryAxisFull makes bulk loading sort *entirely* by key — the
	// primary axis, then Ref — and pack sequentially (no slab recursion),
	// so every node spans the tightest possible range of that dimension.
	// This is the paper's "group genes with the same IDs together" layout.
	PrimaryAxisFull bool
}

// NewTree returns an empty tree.
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
		ordered: true, old: EmptyRect(cfg.Dim),
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
	t.nodes++
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

// keyOf returns the key of item it.
func (t *Tree) keyOf(it Item) key { return key{it.Point[t.axisAt(0)], it.Ref} }

// leafEntry returns the entry of item it. Its degenerate MBR is the
// item's point itself, which nothing writes to.
func (t *Tree) leafEntry(it Item) entry {
	return entry{mbr: Rect{Min: it.Point, Max: it.Point}, item: it, first: t.keyOf(it)}
}

// Insert adds an item in key order. It descends to the last child whose
// first key is <= the item's key, places the item after the entries with
// keys <= its own, and splits an overflowing node where the key order
// suggests (see split), one level at a time up to the root. Every MBR on
// the path grows in place, up to the first that already covered the item.
// It fails only on a point of the wrong dimension.
func (t *Tree) Insert(it Item) error {
	if len(it.Point) != t.dim {
		return fmt.Errorf("rstar: point has %d dims, tree has %d", len(it.Point), t.dim)
	}
	t.insertEntry(t.leafEntry(it), 0)
	t.size++
	return nil
}

// insertEntry places e in key order into a node at the given level
// (0 = leaf).
func (t *Tree) insertEntry(e entry, level int) {
	path, idx := t.descend(e.first, level)
	t.markPath(path)
	r := e.mbr // the only rectangle any MBR on the path has to take in
	i := len(path) - 1
	pos := upperBound(path[i].entries, e.first)
	for {
		n := path[i]
		t.insertAt(n, pos, e)
		if pos == 0 {
			passFirst(path, idx, i)
		}
		if len(n.entries) <= t.maxFill {
			break
		}
		s := t.split(n, pos)
		if i == 0 {
			root := t.newNode(false, n.level+1)
			root.entries = append(root.entries, t.parentEntry(n), t.parentEntry(s))
			root.recomputeMBR()
			t.markDirty(root)
			t.root = root
			return
		}
		e, pos = t.parentEntry(s), idx[i]+1
		i--
	}
	// The node that took e without overflowing, and each ancestor, now
	// covers r: the nodes split below it hold exactly what it held, and r.
	for ; i >= 0 && path[i].mbr.ExpandRect(r); i-- {
	}
}

// descend follows key k from the root down to the node at the given
// level, taking the last child whose first key is <= k (the first child
// when there is none). It returns the path and each node's entry index in
// its parent (idx[0] is unused).
func (t *Tree) descend(k key, level int) (path []*Node, idx []int) {
	n := t.root
	path = make([]*Node, 1, n.level+1)
	idx = make([]int, 1, n.level+1)
	path[0] = n
	for n.level > level {
		j := max(upperBound(n.entries, k)-1, 0)
		n = n.entries[j].child
		path, idx = append(path, n), append(idx, j)
	}
	return path, idx
}

// passFirst copies the first key of path[i] into its parent's entry, and
// on up while the entry it rewrote is its node's first.
func passFirst(path []*Node, idx []int, i int) {
	for ; i > 0; i-- {
		path[i-1].entries[idx[i]].first = path[i].entries[0].first
		if idx[i] != 0 {
			return
		}
	}
}

// parentEntry returns the entry that points at n.
func (t *Tree) parentEntry(n *Node) entry {
	return entry{mbr: n.mbr, child: n, first: n.entries[0].first}
}

// split moves the tail of the overflowing node n into a new right sibling,
// which it returns; n keeps the head. pos is the index of the entry just
// inserted. An entry appended at the end of the node goes alone into the
// sibling; an entry that ends its run of equal primary coordinates is the
// last one n keeps; any other overflow splits at the middle. Entries that
// end their runs — those of a new source of the index, whose ID is the
// highest — thus split nodes only between runs, and a later entry of the
// same run lands in the node the last one opened.
func (t *Tree) split(n *Node, pos int) *Node {
	cut := len(n.entries) / 2
	if last := len(n.entries) - 1; pos == last {
		cut = last
	} else if n.entries[pos+1].first.c != n.entries[pos].first.c {
		cut = pos + 1
	}
	s := t.newNode(n.leaf, n.level)
	s.entries = make([]entry, len(n.entries)-cut, t.maxFill+1)
	copy(s.entries, n.entries[cut:])
	clear(n.entries[cut:])
	n.entries = n.entries[:cut]
	n.recomputeMBR()
	s.recomputeMBR()
	t.markDirty(s)
	return s
}
