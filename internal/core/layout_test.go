package core_test

import (
	"reflect"
	"testing"

	"github.com/imgrn/imgrn/internal/core"
	"github.com/imgrn/imgrn/internal/gene"
	"github.com/imgrn/imgrn/internal/index"
	"github.com/imgrn/imgrn/internal/randgen"
	"github.com/imgrn/imgrn/internal/synth"
)

// TestOnlineAddsKeepBulkLayout: an index bulk-built over N sources that
// then takes K more online, with higher source IDs, must cost a fixed
// query set no more than 5% more node pairs and page accesses than a bulk
// build over all N + K sources, with the same answers. The two shapes are
// one shard of the durable-mixed and the cluster-3x2 benchmark databases.
// Under R* insertion, forced reinsertion and the R* split the first few
// adds broke up the packed gene-primary layout for good: here +42% and
// +19% node pairs.
func TestOnlineAddsKeepBulkLayout(t *testing.T) {
	for _, tc := range []struct {
		name       string
		n, k       int
		nMin, nMax int
	}{
		{"durable-mixed", 150, 16, 15, 30},
		{"cluster-3x2", 267, 16, 20, 40},
	} {
		ds, err := synth.GenerateDatabase(synth.DBParams{
			N: tc.n + tc.k, NMin: tc.nMin, NMax: tc.nMax, LMin: 10, LMax: 20,
			Dist: synth.Uniform, GenePool: 40, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		opts := index.Options{D: 2, Samples: 16, Seed: 1, BufferPages: 1024, Workers: 1}
		bulk, err := index.Build(ds.DB, opts)
		if err != nil {
			t.Fatal(err)
		}
		base := gene.NewDatabase()
		for _, m := range ds.DB.Matrices()[:tc.n] {
			if err := base.Add(m); err != nil {
				t.Fatal(err)
			}
		}
		grown, err := index.Build(base, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ds.DB.Matrices()[tc.n:] {
			if err := grown.AddMatrix(m); err != nil {
				t.Fatal(err)
			}
		}
		if msg := grown.Tree().CheckInvariants(); msg != "" {
			t.Fatalf("%s: %s", tc.name, msg)
		}

		params := core.Params{Gamma: 0.5, Alpha: 0.3, Seed: 3, Analytic: true}
		pb, err := core.NewProcessor(bulk, params)
		if err != nil {
			t.Fatal(err)
		}
		pg, err := core.NewProcessor(grown, params)
		if err != nil {
			t.Fatal(err)
		}
		rng := randgen.New(5)
		var bulkPairs, grownPairs, bulkIO, grownIO uint64
		for q := 0; q < 30; q++ {
			mq, _, err := ds.ExtractQuery(rng, 5)
			if err != nil {
				t.Fatal(err)
			}
			want, sb, err := pb.Query(mq)
			if err != nil {
				t.Fatal(err)
			}
			got, sg, err := pg.Query(mq)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s query %d: answers after online adds differ from the bulk build", tc.name, q)
			}
			bulkPairs += uint64(sb.NodePairsVisited)
			grownPairs += uint64(sg.NodePairsVisited)
			bulkIO += sb.IOCost
			grownIO += sg.IOCost
		}
		t.Logf("%s: node pairs %d (bulk %d), page accesses %d (bulk %d)", tc.name, grownPairs, bulkPairs, grownIO, bulkIO)
		if float64(grownPairs) > 1.05*float64(bulkPairs) || float64(grownIO) > 1.05*float64(bulkIO) {
			t.Errorf("%s: after %d online adds the queries visit %d node pairs and %d pages, more than 5%% over the bulk build's %d and %d",
				tc.name, tc.k, grownPairs, grownIO, bulkPairs, bulkIO)
		}
	}
}
