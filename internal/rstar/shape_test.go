package rstar

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"github.com/imgrn/imgrn/internal/randgen"
)

// structureHash hashes every node of t, top-down in entry order: its level
// and entry count and, at the leaves, each item's reference. It sees the
// layout of the keys and no coordinate besides.
func structureHash(t *Tree) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	t.Walk(func(n *Node) bool {
		put(uint64(n.Level()))
		put(uint64(n.NumEntries()))
		if n.IsLeaf() {
			for i := 0; i < n.NumEntries(); i++ {
				put(n.Item(i).Ref)
			}
		}
		return true
	})
	return h.Sum64()
}

// growShrink runs one add/remove key sequence, drawn from keySeed, on a
// gene-primary tree of node capacity maxFill: 30 sources, each a random
// set of 6 to 14 of 24 genes, are bulk-loaded, 50 more are inserted one
// source at a time, and then every third source is deleted. Each item's
// primary coordinate is its gene; its other four coordinates are drawn
// from coordSeed, so two runs that differ only in coordSeed carry the
// same keys in the same order.
func growShrink(t *testing.T, maxFill int, keySeed, coordSeed uint64) *Tree {
	t.Helper()
	keys, coords := randgen.New(keySeed), randgen.New(coordSeed)
	const dim, genes = 5, 24
	tree, err := NewTree(Config{Dim: dim, MaxFill: maxFill, AxisOrder: []int{4, 0, 1, 2, 3}, PrimaryAxisFull: true})
	if err != nil {
		t.Fatal(err)
	}
	sources := make([][]Item, 80)
	for s := range sources {
		gs := keys.SampleWithoutReplacement(genes, keys.IntIn(6, 14))
		for j, g := range gs {
			pt := make([]float64, dim)
			for k := 0; k < dim-1; k++ {
				pt[k] = coords.UniformIn(0, 2)
			}
			pt[dim-1] = float64(g)
			sources[s] = append(sources[s], Item{Point: pt, Ref: uint64(s)<<32 | uint64(j)})
		}
	}
	var bulk []Item
	for _, its := range sources[:30] {
		bulk = append(bulk, its...)
	}
	if err := tree.BulkLoad(bulk); err != nil {
		t.Fatal(err)
	}
	for _, its := range sources[30:] {
		for _, it := range its {
			if err := tree.Insert(it); err != nil {
				t.Fatal(err)
			}
		}
	}
	for s := 0; s < len(sources); s += 3 {
		for _, it := range sources[s] {
			if !tree.Delete(it) {
				t.Fatalf("source %d: item %#x not found", s, it.Ref)
			}
		}
	}
	if msg := tree.CheckInvariants(); msg != "" {
		t.Fatalf("MaxFill %d, keys %d, coordinates %d: %s", maxFill, keySeed, coordSeed, msg)
	}
	return tree
}

// TestTreeShapeDependsOnKeysAlone: the tree an add/remove sequence grows
// is a function of its keys. Two runs of one key sequence whose
// non-primary coordinates come from different seeds end in the same
// structure — levels, entry counts and leaf references. When condense
// stopped at the first ancestor whose MBR and first key did not change,
// an ancestor left underfull by a run-end split was dissolved only if
// some delete happened to shrink an MBR below it, so the coordinates
// decided the layout: 7 of these 16 key sequences split apart at
// MaxFill 8.
func TestTreeShapeDependsOnKeysAlone(t *testing.T) {
	for keySeed := uint64(0); keySeed < 16; keySeed++ {
		for _, maxFill := range []int{4, 8, 32} {
			want := structureHash(growShrink(t, maxFill, keySeed, 1))
			for _, coordSeed := range []uint64{2, 3} {
				if got := structureHash(growShrink(t, maxFill, keySeed, coordSeed)); got != want {
					t.Errorf("MaxFill %d, keys %d: coordinates from seed %d give structure %#x, seed 1 gives %#x",
						maxFill, keySeed, coordSeed, got, want)
				}
			}
		}
	}
}
