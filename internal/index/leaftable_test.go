package index

import (
	"bytes"
	"math"
	"slices"
	"sort"
	"sync"
	"testing"

	"github.com/imgrn/imgrn/internal/gene"
	"github.com/imgrn/imgrn/internal/pivot"
	"github.com/imgrn/imgrn/internal/randgen"
	"github.com/imgrn/imgrn/internal/rstar"
)

// augSnapshot is a deep copy of one node's augmentation.
type augSnapshot struct {
	f, d []uint64
	leaf *LeafTable
}

func snapshotAug(t *testing.T, x *Index) map[*rstar.Node]augSnapshot {
	t.Helper()
	out := make(map[*rstar.Node]augSnapshot)
	x.tree.Walk(func(n *rstar.Node) bool {
		aug, ok := n.Aug.(*nodeAug)
		if !ok || aug == nil {
			t.Fatalf("level-%d node carries no augmentation", n.Level())
		}
		s := augSnapshot{
			f: append([]uint64(nil), aug.f.Words()...),
			d: append([]uint64(nil), aug.d.Words()...),
		}
		if (aug.leaf != nil) != n.IsLeaf() {
			t.Fatalf("level-%d node: leaf table present = %v", n.Level(), aug.leaf != nil)
		}
		if aug.leaf != nil {
			s.leaf = &LeafTable{
				leaf:   aug.leaf.leaf,
				gene:   append([]int32(nil), aug.leaf.gene...),
				source: append([]int32(nil), aug.leaf.source...),
				col:    append([]int32(nil), aug.leaf.col...),
				entry:  append([]int32(nil), aug.leaf.entry...),

				runGene:  append([]int32(nil), aug.leaf.runGene...),
				runStart: append([]int32(nil), aug.leaf.runStart...),
			}
		}
		out[n] = s
		return true
	})
	return out
}

// assertAugmentationFromScratch checks that every node's current
// augmentation (signatures and leaf table) equals what a from-scratch
// buildSignatures over the same tree computes, and that every node has
// pages. It leaves the index in the from-scratch state.
func assertAugmentationFromScratch(t *testing.T, label string, x *Index) {
	t.Helper()
	got := snapshotAug(t, x)
	x.tree.Walk(func(n *rstar.Node) bool {
		if n.Pages() == 0 {
			t.Fatalf("%s: level-%d node without pages", label, n.Level())
		}
		n.Aug = nil
		return true
	})
	x.buildSignatures()
	want := snapshotAug(t, x)
	if len(got) != len(want) {
		t.Fatalf("%s: %d augmented nodes, from scratch %d", label, len(got), len(want))
	}
	for n, w := range want {
		g := got[n]
		if !slices.Equal(g.f, w.f) || !slices.Equal(g.d, w.d) {
			t.Fatalf("%s: level-%d node signature differs from a from-scratch build", label, n.Level())
		}
		if w.leaf == nil {
			continue
		}
		if g.leaf.leaf != n || !slices.Equal(g.leaf.gene, w.leaf.gene) || !slices.Equal(g.leaf.source, w.leaf.source) ||
			!slices.Equal(g.leaf.col, w.leaf.col) || !slices.Equal(g.leaf.entry, w.leaf.entry) ||
			!slices.Equal(g.leaf.runGene, w.leaf.runGene) || !slices.Equal(g.leaf.runStart, w.leaf.runStart) {
			t.Fatalf("%s: leaf table differs from a from-scratch build:\n got %+v\nwant %+v", label, g.leaf, w.leaf)
		}
	}
}

// TestLeafTableLayout pins the table against an independent construction:
// the leaf's entries decoded one by one and sorted by (gene, source) with
// the standard library, and every (gene, source) key occurring once.
func TestLeafTableLayout(t *testing.T) {
	ds := smallDataset(t, 30, 71)
	x, err := Build(ds.DB, Options{D: 2, Samples: 16, Seed: 71, MaxFill: 8})
	if err != nil {
		t.Fatal(err)
	}
	leaves, vectors := 0, 0
	seen := make(map[[2]int32]bool)
	x.tree.Walk(func(n *rstar.Node) bool {
		if !n.IsLeaf() {
			return true
		}
		leaves++
		type row struct{ g, s, c, e int32 }
		var want []row
		for i := 0; i < n.NumEntries(); i++ {
			it := n.Item(i)
			src, col := UnpackRef(it.Ref)
			want = append(want, row{int32(it.Point[len(it.Point)-1]), int32(src), int32(col), int32(i)})
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].g != want[j].g {
				return want[i].g < want[j].g
			}
			return want[i].s < want[j].s
		})
		tab := x.LeafTable(n)
		if len(tab.gene) != len(want) || cap(tab.gene) != len(want) || cap(tab.entry) != len(want) {
			t.Fatalf("table of %d rows (cap %d) for %d entries", len(tab.gene), cap(tab.gene), len(want))
		}
		for r, w := range want {
			if tab.gene[r] != w.g || tab.source[r] != w.s || tab.col[r] != w.c || tab.entry[r] != w.e {
				t.Fatalf("row %d = (%d,%d,%d,%d), want %+v", r, tab.gene[r], tab.source[r], tab.col[r], tab.entry[r], w)
			}
			key := [2]int32{w.g, w.s}
			if seen[key] {
				t.Fatalf("(gene %d, source %d) indexed twice", w.g, w.s)
			}
			seen[key] = true
			vectors++
			// Run must bracket exactly the rows of the gene.
			lo, hi, _ := tab.run(gene.ID(w.g), 0)
			if r < lo || r >= hi || tab.gene[lo] != w.g || tab.gene[hi-1] != w.g ||
				(lo > 0 && tab.gene[lo-1] == w.g) || (hi < len(tab.gene) && tab.gene[hi] == w.g) {
				t.Fatalf("run(%d) = [%d,%d) does not bracket row %d", w.g, lo, hi, r)
			}
		}
		for _, absent := range []gene.ID{-7, math.MaxInt32, math.MinInt32} {
			if lo, hi, _ := tab.run(absent, 0); lo != hi {
				t.Fatalf("run(%d) = [%d,%d) on a leaf without that gene", absent, lo, hi)
			}
		}
		return true
	})
	if leaves < 4 || vectors != x.Stats().Vectors {
		t.Fatalf("walked %d leaves, %d vectors; index has %d vectors", leaves, vectors, x.Stats().Vectors)
	}
}

// TestIncrementalAugmentation drives a random add/remove sequence and
// requires, after every step, that the dirty-path refresh left every node
// with exactly the signatures and leaf table a from-scratch
// buildSignatures computes; then that an index loaded from an IMGRNIX1
// snapshot of the final state (the warm-boot path) is fully augmented too.
func TestIncrementalAugmentation(t *testing.T) {
	for seed := uint64(0); seed < 3; seed++ {
		ds := smallDataset(t, 36, 80+seed)
		all := ds.DB.Matrices()
		base := gene.NewDatabase()
		for _, m := range all[:12] {
			if err := base.Add(m); err != nil {
				t.Fatal(err)
			}
		}
		// A small node capacity forces splits at run ends and in the middle
		// of runs, condensed nodes and root changes within a few dozen
		// mutations of sources in random order.
		opts := Options{D: 2, Samples: 16, Seed: 80 + seed, MaxFill: 6}
		x, err := Build(base, opts)
		if err != nil {
			t.Fatal(err)
		}
		assertAugmentationFromScratch(t, "after Build", x)

		rng := randgen.New(90 + seed)
		in := map[int]bool{}
		for _, m := range all[:12] {
			in[m.Source] = true
		}
		for step := 0; step < 60; step++ {
			m := all[rng.Intn(len(all))]
			if in[m.Source] {
				if err := x.RemoveMatrix(m.Source); err != nil {
					t.Fatal(err)
				}
			} else if err := x.AddMatrix(m); err != nil {
				t.Fatal(err)
			}
			in[m.Source] = !in[m.Source]
			if msg := x.tree.CheckInvariants(); msg != "" {
				t.Fatalf("seed %d step %d: %s", seed, step, msg)
			}
			assertAugmentationFromScratch(t, "after a mutation", x)
		}

		var buf bytes.Buffer
		if err := x.Save(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(&buf, x.DB())
		if err != nil {
			t.Fatal(err)
		}
		assertAugmentationFromScratch(t, "after Load", loaded)
		if loaded.Stats().Vectors != x.Stats().Vectors {
			t.Fatalf("loaded %d vectors, saved %d", loaded.Stats().Vectors, x.Stats().Vectors)
		}
	}
}

// TestIncrementalAugmentationConcurrentReaders runs the same mutations
// under a write lock while readers walk every node's signatures and leaf
// table under the read lock — the shard's locking discipline. The refresh
// rewrites signature vectors in place and swaps leaf tables, so this is
// the test the race detector must see clean.
func TestIncrementalAugmentationConcurrentReaders(t *testing.T) {
	ds := smallDataset(t, 30, 95)
	all := ds.DB.Matrices()
	base := gene.NewDatabase()
	for _, m := range all[:15] {
		if err := base.Add(m); err != nil {
			t.Fatal(err)
		}
	}
	x, err := Build(base, Options{D: 2, Samples: 16, Seed: 95, MaxFill: 6})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.RWMutex
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				mu.RLock()
				rows := 0
				x.tree.Walk(func(n *rstar.Node) bool {
					f, d := x.NodeSignature(n)
					if f.PopCount() == 0 || d.PopCount() == 0 {
						t.Error("empty signature on a live node")
					}
					if tab := x.LeafTable(n); tab != nil {
						if len(tab.gene) != n.NumEntries() {
							t.Errorf("leaf table has %d rows for %d entries", len(tab.gene), n.NumEntries())
						}
						rows += len(tab.gene)
					}
					return true
				})
				if rows != x.tree.Size() {
					t.Errorf("leaf tables hold %d rows, tree %d items", rows, x.tree.Size())
				}
				mu.RUnlock()
			}
		}()
	}
	// Each round adds the late sources in a new order, so most land below
	// sources already indexed and split nodes inside runs of one gene.
	rng := randgen.New(96)
	for round := 0; round < 4; round++ {
		for _, i := range rng.Perm(len(all) - 15) {
			m := all[15+i]
			mu.Lock()
			err := x.AddMatrix(m)
			mu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
		}
		for _, m := range all[15:] {
			mu.Lock()
			err := x.RemoveMatrix(m.Source)
			mu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	assertAugmentationFromScratch(t, "after the storm", x)
}

// TestPointUpperBoundMatchesPivotBound: the bound on interleaved leaf
// points must equal pivot.UpperBoundCoords bit for bit, on the stack-scratch
// path (d ≤ 4) and past it, and must not allocate on the former.
func TestPointUpperBoundMatchesPivotBound(t *testing.T) {
	rng := randgen.New(97)
	for trial := 0; trial < 2000; trial++ {
		d := 1 + rng.Intn(10)
		ps, pt := make([]float64, 2*d+1), make([]float64, 2*d+1)
		xs, ys, xt, yt := make([]float64, d), make([]float64, d), make([]float64, d), make([]float64, d)
		for r := 0; r < d; r++ {
			xs[r], ys[r] = rng.UniformIn(0, 2), rng.UniformIn(0, 2)
			xt[r], yt[r] = rng.UniformIn(0, 2), rng.UniformIn(0, 2)
			if trial%7 == 0 {
				xt[r] = xs[r] // zero gaps exercise the c > 0 guards
			}
			ps[2*r], ps[2*r+1], pt[2*r], pt[2*r+1] = xs[r], ys[r], xt[r], yt[r]
		}
		for _, oneSided := range []bool{false, true} {
			got := PointUpperBound(ps, pt, d, oneSided)
			want := pivot.UpperBoundCoords(xs, ys, xt, yt, oneSided)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("d=%d oneSided=%v: PointUpperBound %v, pivot bound %v", d, oneSided, got, want)
			}
		}
	}
	ps, pt := []float64{0.3, 0.9, 0.7, 0.8, 5}, []float64{1.1, 0.6, 0.2, 0.9, 7}
	if n := testing.AllocsPerRun(100, func() { PointUpperBound(ps, pt, 2, false) }); n != 0 {
		t.Fatalf("PointUpperBound allocates %v times per call at d=2", n)
	}
}

// refRun is the run search the directory replaced: a binary search of the
// gene column from row from, then a walk to the end of the run.
func refRun(t *LeafTable, g gene.ID, from int) (lo, hi int) {
	v := int32(g)
	lo = from + sort.Search(len(t.gene)-from, func(i int) bool { return t.gene[from+i] >= v })
	hi = lo
	for hi < len(t.gene) && t.gene[hi] == v {
		hi++
	}
	return lo, hi
}

// TestLeafRunMatchesBinarySearch compares the directory scan with the
// binary search and scan it replaced, on random leaves of bulk-loaded and
// online-grown trees, for every directory start position and for present
// and absent genes (negative labels and the int32 extremes included). It
// also pins next: the directory position after the genes up to g.
func TestLeafRunMatchesBinarySearch(t *testing.T) {
	rng := randgen.New(391)
	pool := []gene.ID{math.MinInt32, -11, 0, 3, 4, 9, 40, math.MaxInt32}
	probes := append([]gene.ID{-12, 1, 5, 41, math.MaxInt32 - 1, math.MinInt32 + 1}, pool...)
	leaves := 0
	for trial := 0; trial < 40; trial++ {
		var items []rstar.Item
		for _, g := range pool {
			for s := 0; s < 12; s++ {
				if rng.Float64() < 0.5 {
					continue
				}
				items = append(items, rstar.Item{
					Point: []float64{rng.UniformIn(0, 1), rng.UniformIn(0, 1), float64(g)},
					Ref:   PackRef(s, rng.Intn(30)),
				})
			}
		}
		tree, err := rstar.NewTree(rstar.Config{Dim: 3, MaxFill: 4 + rng.Intn(30)})
		if err != nil {
			t.Fatal(err)
		}
		half := len(items) / 2
		if err := tree.BulkLoad(items[:half]); err != nil {
			t.Fatal(err)
		}
		for _, it := range items[half:] {
			if err := tree.Insert(it); err != nil {
				t.Fatal(err)
			}
		}
		tree.Walk(func(n *rstar.Node) bool {
			if !n.IsLeaf() {
				return true
			}
			leaves++
			tab := NewLeafTable(n)
			if len(tab.runStart) != len(tab.runGene)+1 || int(tab.runStart[len(tab.runGene)]) != len(tab.gene) {
				t.Fatalf("directory of %d genes ends with %v for %d rows", len(tab.runGene), tab.runStart, len(tab.gene))
			}
			for from := 0; from <= len(tab.runGene); from++ {
				for _, g := range probes {
					if from > 0 && tab.runGene[from-1] >= int32(g) {
						continue // run requires the runs before from to hold smaller genes
					}
					lo, hi, next := tab.run(g, from)
					wlo, whi := refRun(tab, g, int(tab.runStart[from]))
					wnext := sort.Search(len(tab.runGene), func(k int) bool { return tab.runGene[k] > int32(g) })
					if lo != wlo || hi != whi || next != wnext {
						t.Fatalf("run(%d, %d) = [%d,%d) next %d, want [%d,%d) next %d (genes %v)",
							g, from, lo, hi, next, wlo, whi, wnext, tab.gene)
					}
				}
			}
			return true
		})
	}
	if leaves < 100 {
		t.Fatalf("checked %d leaves", leaves)
	}
}
