package rstar

import (
	"fmt"
	"math"
	"sort"
)

// BulkLoad builds the tree from scratch with sort-tile-recursive (STR)
// packing, which yields well-shaped leaves for the static offline index
// construction of Section 5.1. Any existing contents are replaced.
func (t *Tree) BulkLoad(items []Item) error {
	for _, it := range items {
		if len(it.Point) != t.dim {
			return fmt.Errorf("rstar: point has %d dims, tree has %d", len(it.Point), t.dim)
		}
	}
	t.size = len(items)
	t.dirty = nil // the old nodes are gone; the caller augments the new tree whole
	if len(items) == 0 {
		t.root = t.newNode(true, 0)
		return nil
	}
	// Pack leaves.
	leafItems := make([]Item, len(items))
	copy(leafItems, items)
	groups := t.strPartition(leafItems, t.maxFill, 0)
	nodes := make([]*Node, 0, len(groups))
	for _, g := range groups {
		n := t.newNode(true, 0)
		for _, it := range g {
			n.entries = append(n.entries, entry{mbr: NewRect(it.Point), item: it})
		}
		n.recomputeMBR()
		nodes = append(nodes, n)
	}
	// Pack upper levels until a single root remains.
	level := 1
	for len(nodes) > 1 {
		parents := t.packLevel(nodes, level)
		nodes = parents
		level++
	}
	t.root = nodes[0]
	return nil
}

type centeredNode struct {
	n      *Node
	center []float64
}

// packLevel groups child nodes into parents with STR on node centers.
func (t *Tree) packLevel(children []*Node, level int) []*Node {
	cs := make([]centeredNode, len(children))
	for i, n := range children {
		c := make([]float64, t.dim)
		n.mbr.Center(c)
		cs[i] = centeredNode{n, c}
	}
	groups := strGroups(len(cs), t.maxFill)
	// Recursively sort-and-slice over dimensions.
	t.strSortNodes(cs, 0, t.maxFill)
	parents := make([]*Node, 0, groups)
	for start := 0; start < len(cs); start += t.maxFill {
		end := start + t.maxFill
		if end > len(cs) {
			end = len(cs)
		}
		p := t.newNode(false, level)
		for _, c := range cs[start:end] {
			p.entries = append(p.entries, entry{mbr: c.n.mbr.Clone(), child: c.n})
		}
		p.recomputeMBR()
		parents = append(parents, p)
	}
	return parents
}

func strGroups(n, cap int) int { return (n + cap - 1) / cap }

// strSortNodes orders centered nodes with recursive STR slabs.
func (t *Tree) strSortNodes(cs []centeredNode, depth, cap int) {
	if len(cs) <= cap || depth >= t.dim {
		return
	}
	axis := t.axisAt(depth)
	sort.SliceStable(cs, func(i, j int) bool { return cs[i].center[axis] < cs[j].center[axis] })
	leaves := strGroups(len(cs), cap)
	slabs := int(math.Ceil(math.Pow(float64(leaves), 1/float64(t.dim-depth))))
	if depth == 0 && t.primaryFull {
		return // fully ordered by the primary axis; chunked by the caller
	}
	if slabs <= 1 {
		return
	}
	per := strGroups(len(cs), slabs)
	for start := 0; start < len(cs); start += per {
		end := start + per
		if end > len(cs) {
			end = len(cs)
		}
		t.strSortNodes(cs[start:end], depth+1, cap)
	}
}

// strPartition tiles items into groups of at most cap using recursive STR
// over the tree's axis order.
func (t *Tree) strPartition(items []Item, cap, depth int) [][]Item {
	if len(items) <= cap {
		return [][]Item{items}
	}
	if depth >= t.dim {
		// Degenerate: slice sequentially.
		var out [][]Item
		for start := 0; start < len(items); start += cap {
			end := start + cap
			if end > len(items) {
				end = len(items)
			}
			out = append(out, items[start:end])
		}
		return out
	}
	axis := t.axisAt(depth)
	sort.SliceStable(items, func(i, j int) bool { return items[i].Point[axis] < items[j].Point[axis] })
	leaves := strGroups(len(items), cap)
	slabs := int(math.Ceil(math.Pow(float64(leaves), 1/float64(t.dim-depth))))
	if depth == 0 && t.primaryFull {
		// Pure sorted packing on the primary axis: each group is exactly
		// one leaf-to-be, spanning the tightest primary-axis range.
		slabs = leaves
	}
	if slabs <= 1 {
		slabs = 1
	}
	per := strGroups(len(items), slabs)
	var out [][]Item
	for start := 0; start < len(items); start += per {
		end := start + per
		if end > len(items) {
			end = len(items)
		}
		out = append(out, t.strPartition(items[start:end], cap, depth+1)...)
	}
	return out
}
