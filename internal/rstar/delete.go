package rstar

// Delete removes the first stored item with an equal point and reference,
// using the classic R-tree deletion algorithm: find the leaf, remove the
// entry, condense the tree (underfull nodes are dissolved and their
// remaining entries reinserted), and shrink the root when it is left with
// a single child. It reports whether an item was removed.
func (t *Tree) Delete(it Item) bool {
	if len(it.Point) != t.dim {
		return false
	}
	path, entryIdx := t.findLeaf(t.root, nil, it)
	if entryIdx < 0 {
		return false
	}
	t.markPath(path)
	leaf := path[len(path)-1]
	leaf.entries = append(leaf.entries[:entryIdx], leaf.entries[entryIdx+1:]...)
	t.size--
	t.condense(path)
	// Shrink the root: an internal root with one child is replaced by it.
	for !t.root.leaf && len(t.root.entries) == 1 {
		t.root.dead = true
		t.root = t.root.entries[0].child
	}
	if len(t.root.entries) == 0 && !t.root.leaf {
		t.root.dead = true
		t.root = t.newNode(true, 0)
		t.markDirty(t.root)
	}
	return true
}

// findLeaf locates the leaf containing it, returning the root-to-leaf path
// and the entry index, or (nil, -1).
func (t *Tree) findLeaf(n *Node, path []*Node, it Item) ([]*Node, int) {
	path = append(path, n)
	if n.leaf {
		for i := range n.entries {
			e := &n.entries[i]
			if e.item.Ref == it.Ref && pointsEqual(e.item.Point, it.Point) {
				return path, i
			}
		}
		return nil, -1
	}
	r := NewRect(it.Point)
	for i := range n.entries {
		if !n.entries[i].mbr.ContainsRect(r) {
			continue
		}
		if p, idx := t.findLeaf(n.entries[i].child, path, it); idx >= 0 {
			return p, idx
		}
	}
	return nil, -1
}

func pointsEqual(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// condense walks the path bottom-up: underfull non-root nodes are removed
// from their parents and their surviving entries queued for reinsertion at
// the original level; MBRs along the path are tightened.
func (t *Tree) condense(path []*Node) {
	type orphan struct {
		e     entry
		level int
	}
	var orphans []orphan
	for i := len(path) - 1; i > 0; i-- {
		n := path[i]
		parent := path[i-1]
		if len(n.entries) < t.minFill {
			// Detach n from its parent and orphan its entries.
			n.dead = true
			for j := range parent.entries {
				if parent.entries[j].child == n {
					parent.entries = append(parent.entries[:j], parent.entries[j+1:]...)
					break
				}
			}
			for _, e := range n.entries {
				orphans = append(orphans, orphan{e: e, level: n.level})
			}
			continue
		}
		n.recomputeMBR()
		for j := range parent.entries {
			if parent.entries[j].child == n {
				parent.entries[j].mbr = n.mbr.Clone()
				break
			}
		}
	}
	t.root.recomputeMBR()
	// Reinsert orphans at their original levels (leaf entries re-enter at
	// level 0; subtree entries re-enter so their leaves stay at depth 0).
	t.reinserting = true
	for _, o := range orphans {
		t.insertEntry(o.e, o.level)
	}
	t.reinserting = false
}
