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
	return fingerprint(t, func(int) bool { return true })
}

// fingerprint is treeFingerprint over the MBR axes a with hashAxis(a).
func fingerprint(t *rstar.Tree, hashAxis func(a int) bool) uint64 {
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
			for a := range r.Min {
				if hashAxis(a) {
					put(math.Float64bits(r.Min[a]))
					put(math.Float64bits(r.Max[a]))
				}
			}
			if n.IsLeaf() {
				put(n.Item(i).Ref)
			}
		}
		return true
	})
	return h.Sum64()
}

// fingerprintDB is the synthetic database both fingerprint tests index.
func fingerprintDB(t *testing.T) *gene.Database {
	t.Helper()
	ds, err := synth.GenerateDatabase(synth.DBParams{
		N: 120, NMin: 20, NMax: 40, LMin: 10, LMax: 20,
		Dist: synth.Uniform, GenePool: 40, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds.DB
}

// TestTreeFingerprint pins the exact shape of a tree grown and shrunk
// online: an index bulk-loaded over 40 synthetic matrices takes 80 more by
// AddMatrix (key descent, run-end and middle splits, root splits) and then
// drops every third source by RemoveMatrix (key descent, condense and
// reinsertion by key). Any change to the insertion or deletion rules — a
// different descent, split point or reinsertion order — changes the hash,
// and so does any change to the y coordinates, which are MBR axes.
func TestTreeFingerprint(t *testing.T) {
	for _, tc := range []struct {
		maxFill int
		want    uint64
	}{
		{0, 0xc168519cad7f8522},
		{8, 0xe60db7069fc6deff},
	} {
		db := fingerprintDB(t)
		all := append([]*gene.Matrix(nil), db.Matrices()...)
		late := all[40:]
		for _, m := range late {
			db.Remove(m.Source)
		}
		idx, err := index.Build(db, index.Options{D: 2, Seed: 42, MaxFill: tc.maxFill, Workers: 1})
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

// TestBulkTreeFingerprint pins the shape of a bulk-built index tree, with
// and without the gene-primary layout. Bulk loading takes its input in
// ascending source order, so breaking primary-coordinate ties by Ref
// leaves the layout as it was before the insertion rule followed the key
// order. The hash covers the y coordinates, which the natural STR layout
// also sorts on; TestBulkTreeFingerprintYFree pins the rest.
func TestBulkTreeFingerprint(t *testing.T) {
	for _, tc := range []struct {
		maxFill int
		natural bool
		want    uint64
	}{
		{0, false, 0x26a711a25b581f32},
		{8, false, 0xa5d059855a52997a},
		{8, true, 0xb31655518abccf9d},
	} {
		idx, err := index.Build(fingerprintDB(t), index.Options{
			D: 2, Seed: 42, MaxFill: tc.maxFill, Workers: 1, NaturalSTRLayout: tc.natural,
		})
		if err != nil {
			t.Fatal(err)
		}
		tree := idx.Tree()
		if msg := tree.CheckInvariants(); msg != "" {
			t.Fatalf("MaxFill %d natural %v: %s", tc.maxFill, tc.natural, msg)
		}
		if got := treeFingerprint(tree); got != tc.want {
			t.Errorf("MaxFill %d natural %v: fingerprint %#x (size %d, height %d), want %#x",
				tc.maxFill, tc.natural, got, tree.Size(), tree.Height(), tc.want)
		}
	}
}

// TestBulkTreeFingerprintYFree pins a bulk-built gene-primary index tree
// without its y coordinates: the gene-primary layout sorts by key alone,
// and pivots and x coordinates are exact distances, so the layout and
// every x and gene bound stay put whatever estimator draws the y values.
func TestBulkTreeFingerprintYFree(t *testing.T) {
	for _, tc := range []struct {
		maxFill int
		want    uint64
	}{
		{0, 0x610f09e29826029b},
		{8, 0x939b1feede707767},
	} {
		idx, err := index.Build(fingerprintDB(t), index.Options{D: 2, Seed: 42, MaxFill: tc.maxFill, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		tree := idx.Tree()
		yFree := func(a int) bool { return a >= 4 || a%2 == 0 } // x_1, x_2 and the gene; not y_r = axis 2r+1
		if got := fingerprint(tree, yFree); got != tc.want {
			t.Errorf("MaxFill %d: y-free fingerprint %#x (size %d, height %d), want %#x",
				tc.maxFill, got, tree.Size(), tree.Height(), tc.want)
		}
	}
}
