package rstar_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"github.com/imgrn/imgrn/internal/gene"
	"github.com/imgrn/imgrn/internal/index"
	"github.com/imgrn/imgrn/internal/rstar"
	"github.com/imgrn/imgrn/internal/synth"
)

// treeFingerprint hashes every node of t, top-down in entry order: its
// level and entry count, then each entry's MBR bits and, at the leaves,
// each item's reference.
func treeFingerprint(t *rstar.Tree) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	t.Walk(func(n *rstar.Node) bool {
		put(uint64(n.Level()))
		put(uint64(n.NumEntries()))
		for i := 0; i < n.NumEntries(); i++ {
			r := n.EntryMBR(i)
			for d := range r.Min {
				put(math.Float64bits(r.Min[d]))
				put(math.Float64bits(r.Max[d]))
			}
			if n.IsLeaf() {
				put(n.Item(i).Ref)
			}
		}
		return true
	})
	return h.Sum64()
}

// TestTreeFingerprint pins the exact shape of an R*-tree grown and shrunk
// online: an index bulk-loaded over 40 synthetic matrices takes 80 more by
// AddMatrix (ChooseSubtree at every level, forced reinserts, splits) and
// then drops every third source by RemoveMatrix (condense and orphan
// reinsertion). Any change to the insertion or deletion rules — a
// different ChooseSubtree pick, split or reinsert order — changes the
// hash. The constants were recorded before ChooseSubtree's overlap loop
// was pruned; the pruned loop must reproduce them bit for bit.
func TestTreeFingerprint(t *testing.T) {
	for _, tc := range []struct {
		maxFill int
		want    uint64
	}{
		{0, 0x533f960424961cb9},
		{8, 0x344ffd8d4e37cac6},
	} {
		ds, err := synth.GenerateDatabase(synth.DBParams{
			N: 120, NMin: 20, NMax: 40, LMin: 10, LMax: 20,
			Dist: synth.Uniform, GenePool: 40, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		all := append([]*gene.Matrix(nil), ds.DB.Matrices()...)
		late := all[40:]
		for _, m := range late {
			ds.DB.Remove(m.Source)
		}
		idx, err := index.Build(ds.DB, index.Options{D: 2, Seed: 42, MaxFill: tc.maxFill, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range late {
			if err := idx.AddMatrix(m); err != nil {
				t.Fatal(err)
			}
		}
		for i, m := range all {
			if i%3 == 0 {
				if err := idx.RemoveMatrix(m.Source); err != nil {
					t.Fatal(err)
				}
			}
		}
		tree := idx.Tree()
		if msg := tree.CheckInvariants(); msg != "" {
			t.Fatalf("MaxFill %d: %s", tc.maxFill, msg)
		}
		if got := treeFingerprint(tree); got != tc.want {
			t.Errorf("MaxFill %d: fingerprint %#x (size %d, height %d), want %#x",
				tc.maxFill, got, tree.Size(), tree.Height(), tc.want)
		}
	}
}
