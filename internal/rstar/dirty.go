package rstar

import "sort"

// Dirty tracking lets the index layer keep per-node augmentations (Aug)
// current without walking the tree after every mutation. Insert and Delete
// record every node whose entry list or subtree changed: each node of an
// adjusted root-to-target path, and each node a split or a root change
// created. Nodes those operations detach are flagged dead and never
// reported. BulkLoad replaces every node and reports nothing: its caller
// augments the new tree whole.

func (t *Tree) markDirty(n *Node) {
	if !n.dirty {
		n.dirty = true
		t.dirty = append(t.dirty, n)
	}
}

func (t *Tree) markPath(path []*Node) {
	for _, n := range path {
		t.markDirty(n)
	}
}

// TakeDirty returns the live nodes created or changed since the previous
// call, children before parents (ascending level, first-touch order within
// a level), and forgets them. A node's augmentation is a function of its
// own entries and its children's augmentations, so recomputing exactly
// these nodes in the returned order brings the whole tree up to date.
func (t *Tree) TakeDirty() []*Node {
	live := t.dirty[:0]
	for _, n := range t.dirty {
		n.dirty = false
		if !n.dead {
			live = append(live, n)
		}
	}
	t.dirty = nil
	sort.SliceStable(live, func(i, j int) bool { return live[i].level < live[j].level })
	return live
}
