package rstar

// Delete removes the first stored item with an equal point and reference
// and reports whether one was removed. It finds the leaf by the key
// descent Insert uses, removes the entry, then condenses the path
// (underfull nodes are dissolved and their entries reinserted by key) and
// shrinks the root while it is an internal node with a single child.
func (t *Tree) Delete(it Item) bool {
	if len(it.Point) != t.dim {
		return false
	}
	path, idx, at := t.findLeaf(t.root, nil, []int{0}, it, t.keyOf(it))
	if at < 0 {
		return false
	}
	t.markPath(path)
	leaf := path[len(path)-1]
	removed := leaf.entries[at].mbr
	leaf.removeAt(at)
	t.size--
	t.condense(path, idx, at == 0, removed)
	// Shrink the root: an internal root with one child is replaced by it.
	for !t.root.leaf && len(t.root.entries) == 1 {
		t.root.dead = true
		t.nodes--
		t.root = t.root.entries[0].child
	}
	if len(t.root.entries) == 0 && !t.root.leaf {
		t.root.dead = true
		t.nodes--
		t.root = t.newNode(true, 0)
		t.markDirty(t.root)
	}
	return true
}

// findLeaf locates it below n, returning the root-to-leaf path, each
// node's entry index in its parent (idx holds n's) and the item's entry
// index, or (nil, nil, -1). In key order the item sits in the last child whose first
// key is <= k, or in an earlier one only when the children after it start
// at exactly k; an unordered tree is searched by MBR containment.
func (t *Tree) findLeaf(n *Node, path []*Node, idx []int, it Item, k key) ([]*Node, []int, int) {
	path = append(path, n)
	if n.leaf {
		lo, hi := 0, len(n.entries)
		if t.ordered {
			hi = upperBound(n.entries, k)
			for lo = hi; lo > 0 && n.entries[lo-1].first == k; lo-- {
			}
		}
		for i := lo; i < hi; i++ {
			if e := &n.entries[i]; e.item.Ref == it.Ref && pointsEqual(e.item.Point, it.Point) {
				return path, idx, i
			}
		}
		return nil, nil, -1
	}
	if !t.ordered {
		for j := range n.entries {
			if n.entries[j].mbr.ContainsPoint(it.Point) {
				if p, ix, at := t.findLeaf(n.entries[j].child, path, append(idx, j), it, k); at >= 0 {
					return p, ix, at
				}
			}
		}
		return nil, nil, -1
	}
	for j := upperBound(n.entries, k) - 1; j >= 0; j-- {
		if p, ix, at := t.findLeaf(n.entries[j].child, path, append(idx, j), it, k); at >= 0 {
			return p, ix, at
		}
		if n.entries[j].first != k {
			break
		}
	}
	return nil, nil, -1
}

func pointsEqual(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// condense restores the tree bottom-up along path after its leaf lost an
// entry with MBR removed (its first entry when lostFirst). Every underfull
// non-root node on the path is detached from its parent and its entries
// are queued for reinsertion — also one that was underfull before this
// delete, such as a sibling a run-end split left small, so which nodes
// are dissolved depends on the keys alone, never on whether some MBR
// happened to shrink. A node recomputes its MBR only when the rectangle
// that left it touched its boundary, and passes its first key up only
// when its first entry left. The queued entries are then reinserted by
// key, the highest level first, so that a subtree is back in place
// before the entries whose keys fall after it are.
func (t *Tree) condense(path []*Node, idx []int, lostFirst bool, removed Rect) {
	var orphans []*Node
	r, moved := removed, true
	for i := len(path) - 1; i > 0; i-- {
		n, p, j := path[i], path[i-1], idx[i]
		if len(n.entries) < t.minFill {
			n.dead = true
			t.nodes--
			p.removeAt(j)
			orphans = append(orphans, n)
			r, moved, lostFirst = n.mbr, true, j == 0
			continue
		}
		if lostFirst {
			p.entries[j].first = n.entries[0].first
			lostFirst = j == 0
		}
		if moved {
			moved = t.shrink(n, r)
			r = t.old
		}
	}
	if moved {
		t.shrink(t.root, r)
	}
	for o := len(orphans) - 1; o >= 0; o-- {
		n := orphans[o]
		for _, e := range n.entries {
			t.insertEntry(e, n.level)
		}
	}
}

// shrink recomputes n's MBR when r, a rectangle that just left n, touched
// its boundary, and reports whether the MBR changed; the MBR from before
// is then in t.old.
func (t *Tree) shrink(n *Node, r Rect) bool {
	if !r.onBoundary(n.mbr) {
		return false
	}
	copy(t.old.Min, n.mbr.Min)
	copy(t.old.Max, n.mbr.Max)
	n.recomputeMBR()
	return !n.mbr.equal(t.old)
}
