package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/imgrn/imgrn/internal/cluster"
	"github.com/imgrn/imgrn/internal/core"
	"github.com/imgrn/imgrn/internal/gene"
	"github.com/imgrn/imgrn/internal/grn"
	"github.com/imgrn/imgrn/internal/index"
	"github.com/imgrn/imgrn/internal/obs"
	"github.com/imgrn/imgrn/internal/randgen"
	"github.com/imgrn/imgrn/internal/shard"
)

// End-to-end cluster tests: real shard servers behind httptest, a remote
// scatter-gather coordinator in front, and an in-process sharded
// coordinator over the same database, ring, and index options as the
// byte-identity reference, plus a one-shard coordinator over the same
// database. DESIGN.md §15's core promise — remote answers identical to
// in-process ones, and to a one-shard engine's at any shard count — is
// pinned here for both kernels, for top-k, one-shard, and batch
// execution, and across replica failures.

var clusterIdxOpts = index.Options{D: 2, Samples: 24, Seed: 2}

// clusterDB builds a planted-module database: genes A, B, C correlated
// in every source plus one unique gene per source. The module's noise
// grows with src mod 4, so Monte Carlo estimates of its edges fall below 1
// and depend on their streams.
func clusterDB(t *testing.T, n int) (*gene.Database, *gene.Catalog) {
	t.Helper()
	rng := randgen.New(1)
	cat := gene.NewCatalog()
	idA, idB, idC := cat.Intern("A"), cat.Intern("B"), cat.Intern("C")
	db := gene.NewDatabase()
	for src := 0; src < n; src++ {
		m, err := gene.NewMatrix(src,
			[]gene.ID{idA, idB, idC, gene.ID(100 + src)},
			moduleColumns(rng, 18, 1+float64(src%4)))
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Add(m); err != nil {
			t.Fatal(err)
		}
	}
	return db, cat
}

// moduleColumns draws four columns over a shared driver signal: three
// (anti-)correlated module members, whose noise scale multiplies, and one
// noise column.
func moduleColumns(rng *randgen.Rand, l int, scale float64) [][]float64 {
	driver := make([]float64, l)
	for i := range driver {
		driver[i] = rng.Gaussian(0, 1)
	}
	mk := func(coef, noise float64) []float64 {
		col := make([]float64, l)
		for i := range col {
			col[i] = coef*driver[i] + noise*rng.Gaussian(0, 1)
		}
		return col
	}
	return [][]float64{mk(1, 0.1*scale), mk(0.9, 0.2*scale), mk(-0.9, 0.2*scale), mk(0, 1)}
}

type testCluster struct {
	topo   cluster.Topology
	ring   *cluster.Ring
	https  []*httptest.Server
	shards []*Server // shard-role servers, aligned with topo.Servers
	remote *cluster.Coordinator
	ref    *shard.Coordinator // in-process byte-identity reference
	one    *shard.Coordinator // the same database on one shard
	reg    *obs.Registry      // coordinator metrics
	cat    *gene.Catalog
	db     *gene.Database
}

// newTestCluster boots nServers shard servers over a 16-source planted
// database, a remote coordinator in front of them, and the in-process
// reference coordinator with identical placement. wrap, when non-nil,
// interposes on server i's handler (fault injection); mod edits the
// coordinator options before dialing.
func newTestCluster(t *testing.T, nServers, replication int,
	wrap func(i int, h http.Handler) http.Handler,
	mod func(*cluster.CoordinatorOptions)) *testCluster {
	t.Helper()
	db, cat := clusterDB(t, 16)
	tc := &testCluster{
		topo: cluster.Topology{Servers: make([]string, nServers), NumShards: nServers, Replication: replication},
		ring: cluster.NewRing(nServers, 0),
		cat:  cat,
		db:   db,
		reg:  obs.NewRegistry(),
	}
	for i := 0; i < nServers; i++ {
		owned := tc.topo.ServerShards(i)
		localOf := make(map[int]int, len(owned))
		for l, g := range owned {
			localOf[g] = l
		}
		fdb := gene.NewDatabase()
		for _, m := range db.Matrices() {
			if _, ok := localOf[tc.ring.Place(m.Source)]; ok {
				if err := fdb.Add(m); err != nil {
					t.Fatal(err)
				}
			}
		}
		coord, err := shard.Build(fdb, shard.Options{
			NumShards: len(owned),
			PlaceFunc: func(src int) int { return localOf[tc.ring.Place(src)] },
			Index:     clusterIdxOpts,
		})
		if err != nil {
			t.Fatalf("server %d: %v", i, err)
		}
		srv := NewShardServer(coord, cat, &ShardRole{
			NumShards: tc.topo.NumShards, Shards: owned, Ring: tc.ring,
		})
		var h http.Handler = srv
		if wrap != nil {
			h = wrap(i, h)
		}
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		tc.topo.Servers[i] = ts.URL
		tc.https = append(tc.https, ts)
		tc.shards = append(tc.shards, srv)
	}

	opts := cluster.CoordinatorOptions{
		Topology:   tc.topo,
		Client:     &cluster.Client{Timeout: 30 * time.Second, Retries: 1, Backoff: time.Millisecond},
		Registry:   tc.reg,
		HedgeAfter: -1,                   // deterministic: failover on error only
		FloorEvery: 2 * time.Millisecond, // exercise cross-shard floor pushes
	}
	if mod != nil {
		mod(&opts)
	}
	remote, err := cluster.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { remote.Close() })
	tc.remote = remote

	ref, err := shard.Build(db, shard.Options{
		NumShards: tc.topo.NumShards,
		PlaceFunc: tc.ring.Place,
		Index:     clusterIdxOpts,
	})
	if err != nil {
		t.Fatal(err)
	}
	tc.ref = ref
	if tc.one, err = shard.Build(db, shard.Options{Index: clusterIdxOpts}); err != nil {
		t.Fatal(err)
	}
	return tc
}

// queryMatrix builds an ad-hoc query matrix from source src's module
// columns (A, B, C).
func (tc *testCluster) queryMatrix(t *testing.T, src int) *gene.Matrix {
	t.Helper()
	m := tc.db.BySource(src)
	q, err := gene.NewMatrix(-1, m.Genes()[:3], [][]float64{m.Col(0), m.Col(1), m.Col(2)})
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// queryGraph builds an explicit probabilistic pattern over A, B, C.
func (tc *testCluster) queryGraph() *grn.Graph {
	m := tc.db.BySource(0)
	g := grn.NewGraph(m.Genes()[:3])
	g.SetEdge(0, 1, 0.9)
	g.SetEdge(0, 2, 0.85)
	g.SetEdge(1, 2, 0.8)
	return g
}

func clusterParamsFor(analytic bool) core.Params {
	p := core.Params{Gamma: 0.6, Alpha: 0.4, Seed: 3, Analytic: analytic}
	if !analytic {
		p.Samples = 24
	}
	return p
}

func mustAnswers(t *testing.T, what string, as []core.Answer, err error) []core.Answer {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if len(as) == 0 {
		t.Fatalf("%s: no answers", what)
	}
	return as
}

func TestClusterByteIdentityMatrix(t *testing.T) {
	tc := newTestCluster(t, 3, 2, nil, nil)
	ctx := context.Background()
	for _, kernel := range []struct {
		name     string
		analytic bool
	}{{"analytic", true}, {"montecarlo", false}} {
		t.Run(kernel.name, func(t *testing.T) {
			params := clusterParamsFor(kernel.analytic)
			q := tc.queryMatrix(t, 3)
			got, _, gerr := tc.remote.QueryContext(ctx, q, params)
			want, _, werr := tc.ref.QueryContext(ctx, q, params)
			one, _, oerr := tc.one.QueryContext(ctx, q, params)
			mustAnswers(t, "remote", got, gerr)
			mustAnswers(t, "in-process", want, werr)
			mustAnswers(t, "one shard", one, oerr)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("remote answers diverge from in-process:\n got %+v\nwant %+v", got, want)
			}
			if !reflect.DeepEqual(got, one) {
				t.Errorf("remote answers diverge from one shard:\n got %+v\nwant %+v", got, one)
			}
		})
	}
}

func TestClusterByteIdentityGraph(t *testing.T) {
	tc := newTestCluster(t, 3, 2, nil, nil)
	ctx := context.Background()
	q := tc.queryGraph()
	params := clusterParamsFor(false)
	got, _, gerr := tc.remote.QueryGraphContext(ctx, q, params)
	want, _, werr := tc.ref.QueryGraphContext(ctx, q, params)
	one, _, oerr := tc.one.QueryGraphContext(ctx, q, params)
	mustAnswers(t, "remote", got, gerr)
	mustAnswers(t, "in-process", want, werr)
	mustAnswers(t, "one shard", one, oerr)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("remote graph answers diverge:\n got %+v\nwant %+v", got, want)
	}
	if !reflect.DeepEqual(got, one) {
		t.Errorf("remote graph answers diverge from one shard:\n got %+v\nwant %+v", got, one)
	}
}

func TestClusterByteIdentityTopK(t *testing.T) {
	tc := newTestCluster(t, 3, 2, nil, nil)
	ctx := context.Background()
	for _, kernel := range []struct {
		name     string
		analytic bool
	}{{"analytic", true}, {"montecarlo", false}} {
		t.Run(kernel.name, func(t *testing.T) {
			params := clusterParamsFor(kernel.analytic)
			q := tc.queryMatrix(t, 5)
			got, _, gerr := tc.remote.QueryTopKContext(ctx, q, params, 3)
			want, _, werr := tc.ref.QueryTopKContext(ctx, q, params, 3)
			one, _, oerr := tc.one.QueryTopKContext(ctx, q, params, 3)
			mustAnswers(t, "remote", got, gerr)
			mustAnswers(t, "in-process", want, werr)
			mustAnswers(t, "one shard", one, oerr)
			if len(got) != 3 {
				t.Errorf("top-3 returned %d answers", len(got))
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("remote top-k diverges:\n got %+v\nwant %+v", got, want)
			}
			if !reflect.DeepEqual(got, one) {
				t.Errorf("remote top-k diverges from one shard:\n got %+v\nwant %+v", got, one)
			}
		})
	}
}

// TestClusterByteIdentitySolo pins the single-server degenerate case: a
// one-shard cluster runs the ordinary scatter leg.
func TestClusterByteIdentitySolo(t *testing.T) {
	tc := newTestCluster(t, 1, 1, nil, nil)
	ctx := context.Background()
	params := clusterParamsFor(false)
	q := tc.queryMatrix(t, 2)

	got, _, gerr := tc.remote.QueryContext(ctx, q, params)
	want, _, werr := tc.ref.QueryContext(ctx, q, params)
	mustAnswers(t, "remote solo", got, gerr)
	mustAnswers(t, "in-process", want, werr)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("solo answers diverge:\n got %+v\nwant %+v", got, want)
	}

	gotK, _, gerr := tc.remote.QueryTopKContext(ctx, q, params, 2)
	wantK, _, werr := tc.ref.QueryTopKContext(ctx, q, params, 2)
	mustAnswers(t, "remote solo top-k", gotK, gerr)
	mustAnswers(t, "in-process top-k", wantK, werr)
	if !reflect.DeepEqual(gotK, wantK) {
		t.Errorf("solo top-k diverges:\n got %+v\nwant %+v", gotK, wantK)
	}
}

func TestClusterByteIdentityBatch(t *testing.T) {
	tc := newTestCluster(t, 3, 2, nil, nil)
	ctx := context.Background()
	items := []core.BatchItem{
		{Matrix: tc.queryMatrix(t, 3), Params: clusterParamsFor(true)},
		{Graph: tc.queryGraph(), Params: clusterParamsFor(false), K: 2},
		{Matrix: tc.queryMatrix(t, 7), Params: clusterParamsFor(false), K: 3},
		{Params: clusterParamsFor(true)}, // no query: fails alone, not the batch
	}
	got, _ := tc.remote.QueryBatch(ctx, items, core.BatchOptions{})
	want, _ := tc.ref.QueryBatch(ctx, items, core.BatchOptions{})
	one, _ := tc.one.QueryBatch(ctx, items, core.BatchOptions{})
	if len(got) != len(items) || len(want) != len(items) || len(one) != len(items) {
		t.Fatalf("result counts: remote %d, in-process %d, one shard %d", len(got), len(want), len(one))
	}
	for i := range items {
		if (got[i].Err == nil) != (want[i].Err == nil) {
			t.Errorf("item %d: err mismatch: remote %v, in-process %v", i, got[i].Err, want[i].Err)
			continue
		}
		if want[i].Err != nil {
			if !errors.Is(got[i].Err, core.ErrNoBatchQuery) {
				t.Errorf("item %d: remote err = %v, want ErrNoBatchQuery", i, got[i].Err)
			}
			continue
		}
		if !reflect.DeepEqual(got[i].Answers, want[i].Answers) {
			t.Errorf("item %d answers diverge:\n got %+v\nwant %+v", i, got[i].Answers, want[i].Answers)
		}
		if !reflect.DeepEqual(got[i].Answers, one[i].Answers) {
			t.Errorf("item %d answers diverge from one shard:\n got %+v\nwant %+v", i, got[i].Answers, one[i].Answers)
		}
	}
}

// TestBatchRerunAfterSeedChange: a coordinator infers a matrix item's
// query graph into its own state, never into the caller's item. Running
// a Monte Carlo batch, changing its Seed and running it again answers
// exactly like a fresh batch at the new seed — in process and over the
// cluster, at P = 1 and 3 — and the caller's items still carry no graph.
func TestBatchRerunAfterSeedChange(t *testing.T) {
	ctx := context.Background()
	for _, p := range []int{1, 3} {
		tc := newTestCluster(t, p, 1, nil, nil)
		for _, eng := range []struct {
			name  string
			batch func(context.Context, []core.BatchItem, core.BatchOptions) ([]core.BatchResult, core.BatchStats)
		}{{"in-process", tc.ref.QueryBatch}, {"cluster", tc.remote.QueryBatch}} {
			label := fmt.Sprintf("P=%d %s", p, eng.name)
			mkItems := func(seed uint64) []core.BatchItem {
				var items []core.BatchItem
				for _, src := range []int{3, 6} {
					// At γ = 0.97 the inferred edge set of source 6's module
					// differs between seeds 3 and 11.
					params := clusterParamsFor(false)
					params.Gamma, params.Alpha, params.Seed = 0.97, 0.1, seed
					items = append(items, core.BatchItem{Matrix: tc.queryMatrix(t, src), Params: params})
				}
				return items
			}
			items := mkItems(3)
			eng.batch(ctx, items, core.BatchOptions{})
			for i := range items {
				items[i].Params.Seed = 11
			}
			rerun, _ := eng.batch(ctx, items, core.BatchOptions{})
			fresh, _ := eng.batch(ctx, mkItems(11), core.BatchOptions{})
			for i := range items {
				if items[i].Graph != nil {
					t.Errorf("%s: item %d: the caller's item carries an inferred graph", label, i)
				}
				mustAnswers(t, label+" rerun", rerun[i].Answers, rerun[i].Err)
				mustAnswers(t, label+" fresh", fresh[i].Answers, fresh[i].Err)
				if rerun[i].Stats.InferQuery == 0 {
					t.Errorf("%s: item %d: the rerun did not infer its query graph", label, i)
				}
				if !reflect.DeepEqual(rerun[i].Answers, fresh[i].Answers) || rerun[i].Stats.QueryEdges != fresh[i].Stats.QueryEdges {
					t.Errorf("%s: item %d: rerun at the new seed diverges from a fresh batch:\n got %+v\nwant %+v",
						label, i, rerun[i].Answers, fresh[i].Answers)
				}
			}
		}
	}
}

// TestClusterReplicaFailover kills one shard server outright; every
// shard it hosted has a live replica, so answers are unchanged.
func TestClusterReplicaFailover(t *testing.T) {
	tc := newTestCluster(t, 3, 2, nil, nil)
	ctx := context.Background()
	params := clusterParamsFor(true)
	q := tc.queryMatrix(t, 3)
	want, _, werr := tc.remote.QueryContext(ctx, q, params)
	mustAnswers(t, "baseline", want, werr)

	tc.https[0].Close() // kill -9 equivalent: connections refused from here on
	tc.remote.RefreshHealth(ctx)

	got, _, err := tc.remote.QueryContext(ctx, q, params)
	mustAnswers(t, "after failover", got, err)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("failover changed the answer:\n got %+v\nwant %+v", got, want)
	}

	// Batch execution survives the same loss.
	res, _ := tc.remote.QueryBatch(ctx, []core.BatchItem{{Matrix: q, Params: params}}, core.BatchOptions{})
	if res[0].Err != nil {
		t.Fatalf("batch after failover: %v", res[0].Err)
	}
	if !reflect.DeepEqual(res[0].Answers, want) {
		t.Errorf("batch failover changed the answer:\n got %+v\nwant %+v", res[0].Answers, want)
	}
}

// TestClusterAllReplicasDown pins the documented partial-failure
// contract: when every replica of a shard is unreachable the query fails
// with ErrShardUnavailable rather than returning a silently partial
// answer set.
func TestClusterAllReplicasDown(t *testing.T) {
	tc := newTestCluster(t, 3, 2, nil, func(o *cluster.CoordinatorOptions) {
		o.Client = &cluster.Client{Timeout: 5 * time.Second, Retries: -1, Backoff: time.Millisecond}
	})
	for _, ts := range tc.https {
		ts.Close()
	}
	_, _, err := tc.remote.QueryContext(context.Background(), tc.queryMatrix(t, 3), clusterParamsFor(true))
	if !errors.Is(err, cluster.ErrShardUnavailable) {
		t.Fatalf("err = %v, want ErrShardUnavailable", err)
	}
	// Every item of a batch was owed by the lost legs; each fails with the
	// same matchable error, replica failures joined underneath.
	res, bst := tc.remote.QueryBatch(context.Background(), []core.BatchItem{
		{Matrix: tc.queryMatrix(t, 3), Params: clusterParamsFor(true)},
		{Graph: tc.queryGraph(), Params: clusterParamsFor(false), K: 2},
	}, core.BatchOptions{})
	for i, r := range res {
		if !errors.Is(r.Err, cluster.ErrShardUnavailable) {
			t.Errorf("batch item %d: err = %v, want ErrShardUnavailable", i, r.Err)
		}
	}
	if bst.Errors != len(res) {
		t.Errorf("batch errors = %d, want %d", bst.Errors, len(res))
	}
}

// assertTopKMatchesRef runs one K>0 query through the remote coordinator
// and the in-process reference: on a faulty cluster this exercises
// first-frame-wins dedup of replayed item frames and accept dedup by
// source.
func assertTopKMatchesRef(t *testing.T, tc *testCluster) {
	t.Helper()
	ctx := context.Background()
	params := clusterParamsFor(false)
	q := tc.queryMatrix(t, 5)
	got, gst, gerr := tc.remote.QueryTopKContext(ctx, q, params, 3)
	want, _, werr := tc.ref.QueryTopKContext(ctx, q, params, 3)
	mustAnswers(t, "remote top-k", got, gerr)
	mustAnswers(t, "in-process top-k", want, werr)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("remote top-k diverges:\n got %+v\nwant %+v", got, want)
	}
	if gst.Answers != len(got) {
		t.Errorf("remote top-k Stats.Answers = %d, want %d (answers returned)", gst.Answers, len(got))
	}
}

// TestClusterFailoverOn5xx: a replica that answers 503 on every exec
// (overload, mid-restart) is failed over transparently.
func TestClusterFailoverOn5xx(t *testing.T) {
	tc := newTestCluster(t, 3, 2, func(i int, h http.Handler) http.Handler {
		if i != 0 {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, "/cluster/exec") {
				http.Error(w, `{"error":"shedding"}`, http.StatusServiceUnavailable)
				return
			}
			h.ServeHTTP(w, r)
		})
	}, func(o *cluster.CoordinatorOptions) {
		o.Client = &cluster.Client{Timeout: 30 * time.Second, Retries: -1, Backoff: time.Millisecond}
	})
	ctx := context.Background()
	params := clusterParamsFor(true)
	q := tc.queryMatrix(t, 3)
	got, _, err := tc.remote.QueryContext(ctx, q, params)
	mustAnswers(t, "remote", got, err)
	want, _, werr := tc.ref.QueryContext(ctx, q, params)
	mustAnswers(t, "in-process", want, werr)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("5xx failover changed the answer:\n got %+v\nwant %+v", got, want)
	}
	assertTopKMatchesRef(t, tc)
}

// TestClusterHedgedReadWins: a replica that answers, but slowly, loses
// the race to a hedged attempt on the next replica — same answer, and
// the hedge-win counter moves.
func TestClusterHedgedReadWins(t *testing.T) {
	const stall = 400 * time.Millisecond
	tc := newTestCluster(t, 3, 2, func(i int, h http.Handler) http.Handler {
		if i != 0 {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, "/cluster/exec") {
				time.Sleep(stall)
			}
			h.ServeHTTP(w, r)
		})
	}, func(o *cluster.CoordinatorOptions) {
		o.HedgeAfter = 5 * time.Millisecond
	})
	ctx := context.Background()
	params := clusterParamsFor(true)
	q := tc.queryMatrix(t, 3)
	got, _, err := tc.remote.QueryContext(ctx, q, params)
	mustAnswers(t, "remote", got, err)
	want, _, werr := tc.ref.QueryContext(ctx, q, params)
	mustAnswers(t, "in-process", want, werr)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("hedged read changed the answer:\n got %+v\nwant %+v", got, want)
	}
	if v := metricValue(t, tc.reg, "imgrn_rpc_hedge_wins_total"); v < 1 {
		t.Errorf("imgrn_rpc_hedge_wins_total = %v, want >= 1 (slow replica should lose the race)", v)
	}
	assertTopKMatchesRef(t, tc)
}

// metricValue renders reg and returns the value of the first sample
// whose name (with labels) starts with prefix.
func metricValue(t *testing.T, reg *obs.Registry, prefix string) float64 {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(sb.String(), "\n") {
		if strings.HasPrefix(line, "#") || !strings.HasPrefix(line, prefix) {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%g", &v); err == nil {
			return v
		}
	}
	t.Fatalf("metric %s not found", prefix)
	return 0
}

// TestClusterReplicatedMutations: adds route through the ring to every
// replica of the owning shard (and only those), stay byte-identical to
// the in-process coordinator afterwards, and the sentinel errors survive
// the network round trip.
func TestClusterReplicatedMutations(t *testing.T) {
	tc := newTestCluster(t, 3, 2, nil, nil)
	ctx := context.Background()

	const src = 200
	rng := randgen.New(7)
	m, err := gene.NewMatrix(src,
		[]gene.ID{tc.cat.Intern("A"), tc.cat.Intern("B"), tc.cat.Intern("C"), gene.ID(100 + src)},
		moduleColumns(rng, 18, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := tc.remote.AddMatrix(m); err != nil {
		t.Fatal(err)
	}
	if err := tc.ref.AddMatrix(m); err != nil {
		t.Fatal(err)
	}

	owning := map[int]bool{}
	for _, i := range tc.topo.Replicas(tc.ring.Place(src)) {
		owning[i] = true
	}
	if len(owning) != 2 {
		t.Fatalf("replicas = %v", owning)
	}
	for i, srv := range tc.shards {
		if has := srv.coord.Database().BySource(src) != nil; has != owning[i] {
			t.Errorf("server %d: holds source %d = %v, want %v", i, src, has, owning[i])
		}
	}

	// The new source is queryable and the remote answer still matches the
	// in-process coordinator that applied the same mutation.
	q, err := gene.NewMatrix(-1, m.Genes()[:3], [][]float64{m.Col(0), m.Col(1), m.Col(2)})
	if err != nil {
		t.Fatal(err)
	}
	params := clusterParamsFor(true)
	got, _, gerr := tc.remote.QueryContext(ctx, q, params)
	want, _, werr := tc.ref.QueryContext(ctx, q, params)
	mustAnswers(t, "remote", got, gerr)
	mustAnswers(t, "in-process", want, werr)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("post-mutation answers diverge:\n got %+v\nwant %+v", got, want)
	}
	found := false
	for _, a := range got {
		found = found || a.Source == src
	}
	if !found {
		t.Errorf("added source %d not among %d answers", src, len(got))
	}

	if err := tc.remote.AddMatrix(m); !errors.Is(err, shard.ErrSourceExists) {
		t.Errorf("duplicate add err = %v, want ErrSourceExists", err)
	}
	if err := tc.remote.RemoveMatrix(src); err != nil {
		t.Fatal(err)
	}
	for i, srv := range tc.shards {
		if srv.coord.Database().BySource(src) != nil {
			t.Errorf("server %d still holds source %d after remove", i, src)
		}
	}
	if err := tc.remote.RemoveMatrix(src); !errors.Is(err, shard.ErrSourceNotFound) {
		t.Errorf("double remove err = %v, want ErrSourceNotFound", err)
	}
}

// TestClusterShardServerRejections pins the explicit-rejection paths of
// the shard-role endpoints: protocol version skew, topology skew, and
// mutations whose placement disagrees with the server's own ring.
func TestClusterShardServerRejections(t *testing.T) {
	tc := newTestCluster(t, 3, 2, nil, nil)
	srv := tc.shards[0]

	rec := postJSON(t, srv, cluster.PathExec, cluster.BatchExecRequest{Proto: 99, NumShards: 3})
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "protocol version") {
		t.Errorf("proto skew: status %d body %s", rec.Code, rec.Body)
	}

	// A ProtoVersion-4 coordinator, which shipped matrix items for every
	// server to infer.
	rec = postJSON(t, srv, cluster.PathExec, map[string]any{"proto": 4, "numShards": 3, "items": []any{}})
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "protocol version") {
		t.Errorf("proto 4: status %d body %s", rec.Code, rec.Body)
	}

	// A matrix item: items are query graphs only.
	m := tc.db.BySource(3)
	rec = postJSON(t, srv, cluster.PathExec, map[string]any{
		"proto": cluster.ProtoVersion, "numShards": 3, "shard": tc.topo.ServerShards(0)[0],
		"items": []any{map[string]any{
			"kind": "matrix", "genes": []int{0, 1}, "columns": [][]float64{m.Col(0), m.Col(1)},
			"params": cluster.ParamsToWire(clusterParamsFor(true)),
		}},
	})
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "unknown field") {
		t.Errorf("matrix item: status %d body %s", rec.Code, rec.Body)
	}

	// A ProtoVersion-3 coordinator, whose servers derived per-shard seeds.
	rec = postJSON(t, srv, cluster.PathExec, map[string]any{"proto": 3, "numShards": 3, "items": []any{}})
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "protocol version") {
		t.Errorf("proto 3: status %d body %s", rec.Code, rec.Body)
	}

	// A ProtoVersion-2 coordinator (either of its two exec envelopes), and
	// its batch path, which no longer exists.
	rec = postJSON(t, srv, cluster.PathExec, map[string]any{"proto": 2, "numShards": 3, "items": []any{}})
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "protocol version") {
		t.Errorf("proto 2: status %d body %s", rec.Code, rec.Body)
	}
	rec = postJSON(t, srv, cluster.PathExec+"-batch", map[string]any{"proto": 2, "numShards": 3, "items": []any{}})
	if rec.Code != http.StatusNotFound {
		t.Errorf("removed /cluster/exec-batch: status %d body %s, want 404", rec.Code, rec.Body)
	}

	rec = postJSON(t, srv, cluster.PathExec, cluster.BatchExecRequest{Proto: cluster.ProtoVersion, NumShards: 7})
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "topology") {
		t.Errorf("topology skew: status %d body %s", rec.Code, rec.Body)
	}

	const src = 42
	wrong := (tc.ring.Place(src) + 1) % tc.topo.NumShards
	rec = postJSON(t, srv, cluster.PathMutate, cluster.MutateRequest{
		Proto: cluster.ProtoVersion, Op: "add", Source: src, Shard: wrong, NumShards: 3,
	})
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "placement") {
		t.Errorf("placement skew: status %d body %s", rec.Code, rec.Body)
	}

	// Unknown query IDs on the floor endpoint are a no-op, not an error:
	// floors race query completion by design.
	rec = postJSON(t, srv, cluster.PathFloor, cluster.FloorRequest{
		Proto: cluster.ProtoVersion, QueryID: "nope", Floor: 0.9,
	})
	if rec.Code != http.StatusOK {
		t.Errorf("floor for dead query: status %d body %s", rec.Code, rec.Body)
	}
}

// TestClusterCoordinatorHTTP drives the coordinator-mode server's public
// HTTP surface end to end against live shard servers.
func TestClusterCoordinatorHTTP(t *testing.T) {
	tc := newTestCluster(t, 3, 2, nil, nil)
	srv, err := NewCluster(cluster.CoordinatorOptions{
		Topology:   tc.topo,
		Client:     &cluster.Client{Timeout: 30 * time.Second, Retries: 1, Backoff: time.Millisecond},
		HedgeAfter: -1,
	}, tc.cat)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Remote().Close() })
	local := NewSharded(tc.ref, tc.cat)

	m := tc.db.BySource(3)
	req := QueryRequest{
		Genes:   []string{"A", "B", "C"},
		Columns: [][]float64{m.Col(0), m.Col(1), m.Col(2)},
		Params:  ParamsJSON{Gamma: 0.6, Alpha: 0.4, Seed: 3, Analytic: true},
	}
	req.Params.Trace = true
	rec := postJSON(t, srv, "/query", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/query status %d body %s", rec.Code, rec.Body)
	}
	var got, want QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	lrec := postJSON(t, local, "/query", req)
	if lrec.Code != http.StatusOK {
		t.Fatalf("local /query status %d body %s", lrec.Code, lrec.Body)
	}
	if err := json.Unmarshal(lrec.Body.Bytes(), &want); err != nil {
		t.Fatal(err)
	}
	if len(got.Answers) == 0 || !reflect.DeepEqual(got.Answers, want.Answers) {
		t.Errorf("HTTP answers diverge:\n got %+v\nwant %+v", got.Answers, want.Answers)
	}
	// The coordinator infers, scatters and merges like an in-process
	// server: both replies carry those spans.
	for _, reply := range []struct {
		name  string
		spans []SpanJSON
	}{{"coordinator", got.Trace}, {"in-process", want.Trace}} {
		stages := map[string]bool{}
		for _, sp := range reply.spans {
			stages[sp.Stage] = true
		}
		for _, stage := range []string{"infer", "scatter", "merge"} {
			if !stages[stage] {
				t.Errorf("%s reply has no %q span: %+v", reply.name, stage, reply.spans)
			}
		}
	}

	// /query-batch streams NDJSON through the remote engine.
	brec := postJSON(t, srv, "/query-batch", BatchRequest{Queries: []BatchQueryJSON{
		{Genes: req.Genes, Columns: req.Columns, Params: req.Params},
		{Genes: req.Genes, Edges: []EdgeJSON{{S: 0, T: 1, Prob: 0.9}}, Params: req.Params},
	}})
	if brec.Code != http.StatusOK {
		t.Fatalf("/query-batch status %d body %s", brec.Code, brec.Body)
	}
	items, dones := 0, 0
	sc := bufio.NewScanner(brec.Body)
	for sc.Scan() {
		var line struct {
			Done  bool   `json:"done"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad batch frame %q: %v", sc.Text(), err)
		}
		if line.Error != "" {
			t.Errorf("batch item error: %s", line.Error)
		}
		if line.Done {
			dones++
		} else {
			items++
		}
	}
	if items != 2 || dones != 1 {
		t.Errorf("batch stream: %d items, %d done frames", items, dones)
	}

	// /stats aggregates the health snapshot; the shards sum to the db.
	grec := httptest.NewRecorder()
	srv.ServeHTTP(grec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	if grec.Code != http.StatusOK {
		t.Fatalf("/stats status %d body %s", grec.Code, grec.Body)
	}
	var stats StatsResponse
	if err := json.Unmarshal(grec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, sh := range stats.Shards {
		sum += sh.Sources
	}
	if stats.Matrices != tc.db.Len() || stats.NumShards != 3 || sum != tc.db.Len() {
		t.Errorf("stats = %+v (sources sum %d, want %d)", stats, sum, tc.db.Len())
	}

	// /cluster/members reports a healthy roster; /cluster (structure
	// clustering) degrades explicitly in coordinator mode.
	mrec := httptest.NewRecorder()
	srv.ServeHTTP(mrec, httptest.NewRequest(http.MethodGet, cluster.PathMembers, nil))
	var members MembersResponse
	if err := json.Unmarshal(mrec.Body.Bytes(), &members); err != nil {
		t.Fatal(err)
	}
	if len(members.Members) != 3 || members.Replication != 2 {
		t.Fatalf("members = %+v", members)
	}
	for _, mem := range members.Members {
		if !mem.Healthy {
			t.Errorf("member %d unhealthy: %+v", mem.Index, mem)
		}
	}
	crec := postJSON(t, srv, "/cluster", map[string]int{"k": 2})
	if crec.Code != http.StatusNotImplemented {
		t.Errorf("/cluster in coordinator mode: status %d, want 501", crec.Code)
	}
}

// TestClusterMetricsPreseeded: the cluster metric families are visible
// on first scrape — before any traffic — on both roles.
func TestClusterMetricsPreseeded(t *testing.T) {
	tc := newTestCluster(t, 3, 2, nil, nil)
	srv, err := NewCluster(cluster.CoordinatorOptions{
		Topology: tc.topo,
		Client:   &cluster.Client{Timeout: 30 * time.Second, Retries: 1, Backoff: time.Millisecond},
	}, tc.cat)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Remote().Close() })

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"imgrn_cluster_members ",
		"imgrn_cluster_members_healthy ",
		"imgrn_cluster_scatters_total ",
		"imgrn_cluster_partial_failures_total ",
		"imgrn_cluster_floor_updates_total ",
		"imgrn_cluster_rebalance_signals_total ",
		`imgrn_rpc_requests_total{outcome="ok"}`,
		`imgrn_rpc_requests_total{outcome="error"}`,
		`imgrn_rpc_requests_total{outcome="timeout"}`,
		"imgrn_rpc_retries_total ",
		"imgrn_rpc_hedges_total ",
		"imgrn_rpc_hedge_wins_total ",
		"imgrn_rpc_seconds_bucket",
		"imgrn_batch_requests_total ",
		`imgrn_requests_total{endpoint="query"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("coordinator /metrics missing %q", want)
		}
	}

	rec = httptest.NewRecorder()
	tc.shards[0].ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body = rec.Body.String()
	for _, want := range []string{
		`imgrn_requests_total{endpoint="cluster-exec"}`,
		`imgrn_requests_total{endpoint="cluster-mutate"}`,
		`imgrn_requests_total{endpoint="cluster-floor"}`,
		`imgrn_requests_total{endpoint="cluster-info"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("shard-server /metrics missing %q", want)
		}
	}
}

// TestClusterShardServersObserveItems: a shard server observes every
// item leg it executes, so its query-latency histogram (and with it the
// stage, candidate, cache and page families) sees coordinator batches.
func TestClusterShardServersObserveItems(t *testing.T) {
	tc := newTestCluster(t, 3, 2, nil, nil)
	items := []core.BatchItem{
		{Matrix: tc.queryMatrix(t, 3), Params: clusterParamsFor(true)},
		{Graph: tc.queryGraph(), Params: clusterParamsFor(false), K: 2},
		{Matrix: tc.queryMatrix(t, 7), Params: clusterParamsFor(false), K: 3},
	}
	before := make([]float64, len(tc.shards))
	for i, srv := range tc.shards {
		before[i] = metricValue(t, srv.Metrics, "imgrn_query_seconds_count")
	}
	res, _ := tc.remote.QueryBatch(context.Background(), items, core.BatchOptions{})
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("item %d: %v", i, r.Err)
		}
	}
	// Unprobed, every leg goes to its shard's primary: one leg per server.
	for i, srv := range tc.shards {
		if rose := metricValue(t, srv.Metrics, "imgrn_query_seconds_count") - before[i]; rose != float64(len(items)) {
			t.Errorf("server %d: imgrn_query_seconds_count rose by %v, want %d", i, rose, len(items))
		}
		if v := metricValue(t, srv.Metrics, `imgrn_requests_total{endpoint="cluster-exec"}`); v != float64(len(items)) {
			t.Errorf("server %d: cluster-exec requests = %v, want %d", i, v, len(items))
		}
	}
}

// execGate interposes on /cluster/exec by the envelope's GLOBAL shard —
// so it acts on whichever replica serves the leg: each gated shard's
// response passes its first `pass` item frames, then runs `then` (which
// may block, or abort the connection by panicking).
type execGate struct {
	pass int
	then func(r *http.Request)
}

type gatedWriter struct {
	http.ResponseWriter
	r     *http.Request
	gate  execGate
	items int
}

func (g *gatedWriter) Write(p []byte) (int, error) {
	// The NDJSON writer emits one frame per Write.
	if bytes.HasPrefix(p, []byte(`{"item"`)) {
		if g.items == g.gate.pass {
			g.gate.then(g.r)
		}
		g.items++
	}
	return g.ResponseWriter.Write(p)
}

func (g *gatedWriter) Flush() { g.ResponseWriter.(http.Flusher).Flush() }

func gateExec(gates map[int]execGate) func(int, http.Handler) http.Handler {
	return func(_ int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != cluster.PathExec {
				h.ServeHTTP(w, r)
				return
			}
			body, _ := io.ReadAll(r.Body)
			var env struct {
				Shard int `json:"shard"`
			}
			_ = json.Unmarshal(body, &env)
			r.Body = io.NopCloser(bytes.NewReader(body))
			if gate, ok := gates[env.Shard]; ok {
				w = &gatedWriter{ResponseWriter: w, r: r, gate: gate}
			}
			h.ServeHTTP(w, r)
		})
	}
}

// TestClusterFailedLegCancelsAndNamesRootCause: with every replica of
// shard 0 dying mid-stream and shard 1's leg held open, a query fails with
// the dead leg's ErrShardUnavailable — not the held sibling's
// context.Canceled — without waiting for the held leg; and a batch whose
// item 0 the dead leg had already delivered still completes item 0.
func TestClusterFailedLegCancelsAndNamesRootCause(t *testing.T) {
	for _, tcase := range []struct {
		name string
		pass int // item frames the dead and the held leg deliver first
	}{{"solo", 0}, {"batch", 1}} {
		t.Run(tcase.name, func(t *testing.T) {
			release := make(chan struct{})
			defer close(release) // before the servers close: frees held handlers
			hold := func(r *http.Request) {
				select {
				case <-release:
				case <-r.Context().Done():
				}
			}
			die := func(*http.Request) { panic(http.ErrAbortHandler) }
			tc := newTestCluster(t, 3, 2,
				gateExec(map[int]execGate{0: {tcase.pass, die}, 1: {tcase.pass, hold}}),
				func(o *cluster.CoordinatorOptions) {
					o.Client = &cluster.Client{Timeout: 30 * time.Second, Retries: -1, Backoff: time.Millisecond}
				})
			items := []core.BatchItem{
				{Matrix: tc.queryMatrix(t, 3), Params: clusterParamsFor(true)},
				{Matrix: tc.queryMatrix(t, 7), Params: clusterParamsFor(true)},
			}
			want, _ := tc.ref.QueryBatch(context.Background(), items, core.BatchOptions{})

			var res []core.BatchResult
			returned := make(chan struct{})
			go func() {
				defer close(returned)
				if tcase.pass == 0 {
					_, _, err := tc.remote.QueryContext(context.Background(), items[1].Matrix, items[1].Params)
					res = []core.BatchResult{{Err: err}}
				} else {
					res, _ = tc.remote.QueryBatch(context.Background(), items, core.BatchOptions{})
				}
			}()
			select {
			case <-returned:
			case <-time.After(20 * time.Second):
				t.Fatal("the scatter waited for the held leg instead of cancelling it")
			}

			failed := res[len(res)-1].Err
			if !errors.Is(failed, cluster.ErrShardUnavailable) || errors.Is(failed, context.Canceled) {
				t.Errorf("err = %v, want the dead leg's ErrShardUnavailable, not cancellation fallout", failed)
			}
			if tcase.pass == 1 {
				if res[0].Err != nil {
					t.Fatalf("item 0, delivered by every leg before the failure: %v", res[0].Err)
				}
				if !reflect.DeepEqual(res[0].Answers, want[0].Answers) {
					t.Errorf("item 0 diverges:\n got %+v\nwant %+v", res[0].Answers, want[0].Answers)
				}
			}
			if v := metricValue(t, tc.reg, "imgrn_cluster_partial_failures_total"); v != 1 {
				t.Errorf("imgrn_cluster_partial_failures_total = %v, want 1", v)
			}
		})
	}
}

// TestClusterBatchFloorsPerItem: every K>0 item of a batch has its own
// floor — accept frames and /cluster/floor pushes carry the item index —
// and the merged top-k is each item's in-process top-k. Shard 2's leg is
// delayed so the other legs' accepts raise both floors while the scatter
// is still in flight.
func TestClusterBatchFloorsPerItem(t *testing.T) {
	delay := func(*http.Request) { time.Sleep(100 * time.Millisecond) }
	tc := newTestCluster(t, 3, 2, gateExec(map[int]execGate{2: {0, delay}}),
		func(o *cluster.CoordinatorOptions) { o.FloorEvery = time.Millisecond })
	items := []core.BatchItem{
		{Matrix: tc.queryMatrix(t, 5), Params: clusterParamsFor(true), K: 2},
		{Graph: tc.queryGraph(), Params: clusterParamsFor(false), K: 3},
	}
	ctx := context.Background()
	got, _ := tc.remote.QueryBatch(ctx, items, core.BatchOptions{})
	want, _ := tc.ref.QueryBatch(ctx, items, core.BatchOptions{})
	for i := range items {
		mustAnswers(t, fmt.Sprintf("remote item %d", i), got[i].Answers, got[i].Err)
		mustAnswers(t, fmt.Sprintf("in-process item %d", i), want[i].Answers, want[i].Err)
		if !reflect.DeepEqual(got[i].Answers, want[i].Answers) {
			t.Errorf("item %d top-k diverges:\n got %+v\nwant %+v", i, got[i].Answers, want[i].Answers)
		}
	}
	if v := metricValue(t, tc.reg, "imgrn_cluster_floor_updates_total"); v < float64(len(items)) {
		t.Errorf("imgrn_cluster_floor_updates_total = %v, want >= %d (one risen floor per item)", v, len(items))
	}
	pushed := 0.0
	for _, srv := range tc.shards {
		pushed += metricValue(t, srv.Metrics, `imgrn_requests_total{endpoint="cluster-floor"}`)
	}
	if pushed == 0 {
		t.Error("no shard server served a /cluster/floor push")
	}
}
