package index

import (
	"math"

	"github.com/imgrn/imgrn/internal/bitvec"
	"github.com/imgrn/imgrn/internal/gene"
	"github.com/imgrn/imgrn/internal/rstar"
)

// LeafTable is the join-side view of one R*-tree leaf (DESIGN.md §7.1): one
// row per leaf entry, stored as four parallel int32 columns cut from one
// exact-size allocation (16 bytes per indexed vector) and sorted by
// (gene, source). Line 19 of Fig. 4 keeps only same-source point pairs, so
// the leaf-pair check is an equi-join on source between the g_s rows of one
// leaf and the neighbor-gene rows of the other; with this order each side
// of the join is a contiguous run whose rows ascend in source, and a merge
// of two runs finds the matches in linear time (JoinLeaves).
//
// Gene labels are unique within a matrix and source IDs unique within a
// database, so (gene, source) is unique in the tree: a run holds each
// source at most once and the join is 1:1.
//
// A table is immutable once attached to its leaf; a mutation that changes
// the leaf's entries replaces it (refreshDirty).
type LeafTable struct {
	leaf   *rstar.Node
	gene   []int32 // gene ID (the point's last coordinate)
	source []int32 // data-source ID of the item reference
	col    []int32 // column of the vector within its matrix
	entry  []int32 // position of the entry within the leaf: leaf.Item(entry[r])
}

// NewLeafTable builds the table of leaf n.
func NewLeafTable(n *rstar.Node) *LeafTable {
	k := n.NumEntries()
	buf := make([]int32, 4*k)
	t := &LeafTable{
		leaf: n,
		gene: buf[0:k:k], source: buf[k : 2*k : 2*k],
		col: buf[2*k : 3*k : 3*k], entry: buf[3*k : 4*k : 4*k],
	}
	for i := 0; i < k; i++ {
		it := n.Item(i)
		source, col := UnpackRef(it.Ref)
		g, s, c, e := int32(it.Point[len(it.Point)-1]), int32(source), int32(col), int32(i)
		// Insertion sort: a leaf holds at most MaxFill entries, and
		// bulk-loaded leaves arrive in gene order already.
		r := i
		for ; r > 0 && (t.gene[r-1] > g || (t.gene[r-1] == g && t.source[r-1] > s)); r-- {
			t.gene[r], t.source[r], t.col[r], t.entry[r] = t.gene[r-1], t.source[r-1], t.col[r-1], t.entry[r-1]
		}
		t.gene[r], t.source[r], t.col[r], t.entry[r] = g, s, c, e
	}
	return t
}

// run returns the half-open row range [lo, hi) of gene g; rows inside it
// ascend in source. The range is empty when the leaf holds no vector of g.
func (t *LeafTable) run(g gene.ID) (lo, hi int) {
	v := int32(g)
	lo = firstAtLeast(t.gene, v)
	if v == math.MaxInt32 {
		return lo, len(t.gene)
	}
	return lo, lo + firstAtLeast(t.gene[lo:], v+1)
}

// firstAtLeast returns the first index of ascending col whose value is at
// least v (len(col) when there is none).
func firstAtLeast(col []int32, v int32) int {
	lo, hi := 0, len(col)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); col[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// PivotTest parameterizes line 20 of Fig. 4, the pivot-based pruning of a
// point pair: the pair is pruned when PointUpperBound ≤ Gamma, unless the
// test is Disabled — the DisablePivotPruning ablation, or a Gamma below
// pivot.BoundFloor, where the test cannot prune.
type PivotTest struct {
	D        int // pivots per matrix
	Gamma    float64
	OneSided bool
	Disabled bool
}

// JoinLeaves answers lines 16–21 of Figure 4 for one leaf pair and one
// (g_s, neighbor gene) combination: it calls emit once per point pair
// (X_s in leaf a with gene sGene, X_t in leaf b with gene tGene) whose data
// sources agree (line 19), passing the source, the two matrix columns and
// whether the pivot upper bound prunes the pair (line 20).
//
// Instead of testing every entry of a against every entry of b, it
// merge-joins the two gene runs on source ID: each source occurs at most
// once per run, so the join is 1:1 and the pivot bound is evaluated on
// matched pairs only. Pairs are emitted in ascending source order.
func JoinLeaves(a, b *LeafTable, sGene, tGene gene.ID, pt PivotTest,
	emit func(source, sCol, tCol int, pruned bool)) {
	i, iEnd := a.run(sGene)
	if i == iEnd {
		return
	}
	j, jEnd := b.run(tGene)
	for i < iEnd && j < jEnd {
		switch sa, sb := a.source[i], b.source[j]; {
		case sa < sb:
			i++
		case sa > sb:
			j++
		default:
			pruned := !pt.Disabled && PointUpperBound(
				a.leaf.Item(int(a.entry[i])).Point, b.leaf.Item(int(b.entry[j])).Point,
				pt.D, pt.OneSided) <= pt.Gamma
			emit(int(sa), int(a.col[i]), int(b.col[j]), pruned)
			i++
			j++
		}
	}
}

// nodeAug is the node augmentation: V_f and V_d of Section 5.1 and, on
// leaves, the join table.
type nodeAug struct {
	f    *bitvec.Vector // gene-ID signature
	d    *bitvec.Vector // data-source signature
	leaf *LeafTable     // nil on internal nodes
}

// augment (re)computes the augmentation of n from its entries (leaves) or
// from its children's augmentations (bit-OR aggregation), which must be
// current. A node augmented before keeps its vectors and has them rewritten
// in place — writers hold the shard write lock — while the leaf table is
// always a fresh exact-size allocation.
func (x *Index) augment(n *rstar.Node) {
	b := x.opts.Bits
	aug, _ := n.Aug.(*nodeAug)
	if aug == nil {
		aug = &nodeAug{f: bitvec.New(b), d: bitvec.New(b)}
		n.Aug = aug
	} else {
		aug.f.Reset()
		aug.d.Reset()
	}
	if n.IsLeaf() {
		aug.leaf = NewLeafTable(n)
		for r := range aug.leaf.gene {
			aug.f.Set(bitvec.HashGene(gene.ID(aug.leaf.gene[r]), b))
			aug.d.Set(bitvec.HashSource(int(aug.leaf.source[r]), b))
		}
		return
	}
	for i := 0; i < n.NumEntries(); i++ {
		child := n.Child(i).Aug.(*nodeAug)
		aug.f.OrInPlace(child.f)
		aug.d.OrInPlace(child.d)
	}
}

// buildSignatures computes every node's augmentation bottom-up: the
// from-scratch pass of Build and Load.
func (x *Index) buildSignatures() {
	x.tree.WalkBottomUp(x.augment)
}

// refreshDirty brings pages and augmentations up to date after R*-tree
// inserts or deletes: only the nodes the mutation created or changed
// (rstar.Tree.TakeDirty — new nodes plus every adjusted path up to the
// root) are visited, children before parents.
func (x *Index) refreshDirty() {
	for _, n := range x.tree.TakeDirty() {
		if n.Pages() == 0 {
			id, pages := x.acc.Allocate(x.tree.NodeBytes(n))
			n.SetPages(id, pages)
			x.stats.Pages += uint64(pages)
		}
		x.augment(n)
	}
}

// NodeSignature returns the V_f/V_d signatures of a tree node.
func (x *Index) NodeSignature(n *rstar.Node) (f, d *bitvec.Vector) {
	aug := n.Aug.(*nodeAug)
	return aug.f, aug.d
}

// LeafTable returns the join table of leaf n (nil for internal nodes).
func (x *Index) LeafTable(n *rstar.Node) *LeafTable { return n.Aug.(*nodeAug).leaf }
