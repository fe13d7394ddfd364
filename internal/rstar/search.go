package rstar

import (
	"fmt"

	"github.com/imgrn/imgrn/internal/pagestore"
)

// Search appends to out every item whose point lies inside r and returns
// the result. The order is deterministic (depth-first, entry order).
func (t *Tree) Search(r Rect, out []Item) []Item {
	return searchNode(t.root, r, out)
}

func searchNode(n *Node, r Rect, out []Item) []Item {
	for i := range n.entries {
		e := &n.entries[i]
		if !r.Intersects(e.mbr) {
			continue
		}
		if n.leaf {
			if r.ContainsPoint(e.item.Point) {
				out = append(out, e.item)
			}
		} else {
			out = searchNode(e.child, r, out)
		}
	}
	return out
}

// Walk visits every node top-down (parents before children). Returning
// false from fn skips the node's subtree.
func (t *Tree) Walk(fn func(n *Node) bool) {
	walkNode(t.root, fn)
}

func walkNode(n *Node, fn func(n *Node) bool) {
	if !fn(n) {
		return
	}
	if n.leaf {
		return
	}
	for i := range n.entries {
		walkNode(n.entries[i].child, fn)
	}
}

// WalkBottomUp visits every node with children before parents, the order
// needed to aggregate signatures (bit-OR of children, Section 5.1).
func (t *Tree) WalkBottomUp(fn func(n *Node)) {
	walkBottomUp(t.root, fn)
}

func walkBottomUp(n *Node, fn func(n *Node)) {
	if !n.leaf {
		for i := range n.entries {
			walkBottomUp(n.entries[i].child, fn)
		}
	}
	fn(n)
}

// NodeCount returns the total number of nodes, kept live by every
// operation that creates or detaches one (CheckInvariants holds it to a
// walk).
func (t *Tree) NodeCount() int { return t.nodes }

// entryBytes estimates the on-page size of one entry: a 2k-float MBR plus
// a 64-bit child pointer / item reference.
func (t *Tree) entryBytes() int { return t.dim*2*8 + 8 }

// NodeBytes estimates the serialized size of node n: a small header plus
// its entries; leaf entries store the point (k floats) and the reference.
func (t *Tree) NodeBytes(n *Node) int {
	const header = 16
	if n.leaf {
		return header + len(n.entries)*(t.dim*8+8)
	}
	return header + len(n.entries)*t.entryBytes()
}

// SetPages assigns a page range to this node, for incremental page mapping
// after inserts created new nodes.
func (n *Node) SetPages(id pagestore.PageID, pages int) {
	n.page, n.pages = id, pages
}

// AssignPages maps every node onto pages of the accountant, enabling page
// I/O accounting during traversal. It returns the total number of pages.
func (t *Tree) AssignPages(acc *pagestore.Accountant) int {
	total := 0
	t.Walk(func(n *Node) bool {
		id, pages := acc.Allocate(t.NodeBytes(n))
		n.page, n.pages = id, pages
		total += pages
		return true
	})
	return total
}

// TouchNode charges a read of node n to the query's reader (a no-op when
// pages were never assigned or r is nil).
func TouchNode(r *pagestore.Reader, n *Node) {
	if r == nil || n.pages == 0 {
		return
	}
	r.TouchRange(n.page, n.pages)
}

// CheckInvariants validates structural invariants for tests: tight MBRs
// (each node's MBR bounds exactly its entries, and each internal entry's
// MBR is its child's), fill factors (root excepted), uniform leaf level,
// item count and, for a tree in key order, the order itself: the leaf
// entries ascend across the whole tree and each internal entry carries
// its child's first key. It returns a descriptive error string, or "" when
// consistent.
func (t *Tree) CheckInvariants() string {
	if t.root == nil {
		return "nil root"
	}
	items := 0
	var prev *key
	var check func(n *Node, isRoot bool) string
	check = func(n *Node, isRoot bool) string {
		if !isRoot && len(n.entries) == 0 {
			// Bulk loading and run-end splits legitimately leave nodes
			// below the minimum fill; only an empty one is wrong.
			return "empty non-root node"
		}
		if len(n.entries) > t.maxFill {
			return "overfull node"
		}
		for i := range n.entries {
			e := &n.entries[i]
			if n.leaf {
				items++
				if !e.mbr.ContainsPoint(e.item.Point) {
					return "leaf MBR does not contain its point"
				}
				if e.first != t.keyOf(e.item) {
					return "leaf entry key is not its item's"
				}
				if t.ordered && prev != nil && e.first.less(*prev) {
					return "leaf entries out of key order"
				}
				prev = &e.first
				continue
			}
			if e.child.level != n.level-1 {
				return "child level mismatch"
			}
			if !e.mbr.equal(e.child.mbr) {
				return "entry MBR is not its child's MBR"
			}
			if len(e.child.entries) > 0 && e.first != e.child.entries[0].first {
				return "entry key is not its child's first key"
			}
			if s := check(e.child, false); s != "" {
				return s
			}
		}
		if len(n.entries) > 0 && !n.mbr.equal(boundOf(n)) {
			return "node MBR is not the bound of its entries"
		}
		return ""
	}
	if s := check(t.root, true); s != "" {
		return s
	}
	if items != t.size {
		return "item count mismatch"
	}
	nodes := 0
	t.Walk(func(*Node) bool { nodes++; return true })
	if nodes != t.nodes {
		return fmt.Sprintf("node count %d, a walk finds %d", t.nodes, nodes)
	}
	return ""
}

func boundOf(n *Node) Rect {
	m := n.entries[0].mbr.Clone()
	for _, e := range n.entries[1:] {
		m.ExpandRect(e.mbr)
	}
	return m
}
