package imgrn_test

import (
	"fmt"
	"os"
	"runtime"
	"testing"

	imgrn "github.com/imgrn/imgrn"
	"github.com/imgrn/imgrn/internal/gene"
	"github.com/imgrn/imgrn/internal/randgen"
	"github.com/imgrn/imgrn/internal/synth"
)

// shardBench is the Fig. 5-style large-N workload shared by the sharded
// scatter-gather sweep: an 800-source database over a small gene pool, so
// queries touch candidates on every shard (several hundred candidate
// matrices per query), plus a fixed extracted query set. With the leaf-level
// source join the descent costs about as much over P small trees as over one
// large one, so on one core P only adds scatter-gather overhead; what P buys
// is parallel scatter on idle cores and smaller write-lock domains.
type shardBench struct {
	db      *imgrn.Database
	queries []*gene.Matrix
}

func setupShardBench(tb testing.TB) *shardBench {
	tb.Helper()
	ds, err := synth.GenerateDatabase(synth.DBParams{
		N: 800, NMin: 20, NMax: 40, LMin: 10, LMax: 20,
		Dist: synth.Uniform, GenePool: 40, Seed: 33,
	})
	if err != nil {
		tb.Fatal(err)
	}
	rng := randgen.New(34)
	sb := &shardBench{db: ds.DB}
	for i := 0; i < 5; i++ {
		q, _, err := ds.ExtractQuery(rng, 5)
		if err != nil {
			tb.Fatal(err)
		}
		sb.queries = append(sb.queries, q)
	}
	return sb
}

func openShardBench(tb testing.TB, sb *shardBench, p int) *imgrn.Engine {
	tb.Helper()
	eng, err := imgrn.OpenSharded(sb.db, imgrn.IndexOptions{
		D: 2, Samples: 24, Seed: 33, Bits: 1024, BufferPages: 1024,
	}, p)
	if err != nil {
		tb.Fatal(err)
	}
	return eng
}

// shardBenchQuery runs one workload query with the analytic estimator:
// candidate verification splits evenly across shards with no shared
// Monte Carlo sampling state, so per-shard work is P-independent and
// the sweep isolates scatter-gather cost. (Under the MC estimator each
// shard would regenerate its own permutation batches, inflating total
// work; see DESIGN.md.)
func shardBenchQuery(tb testing.TB, eng *imgrn.Engine, sb *shardBench, i int) imgrn.QueryStats {
	params := imgrn.QueryParams{Gamma: 0.4, Alpha: 0.3, Seed: 1000 + uint64(i), Analytic: true}
	_, st, err := eng.Query(sb.queries[i%len(sb.queries)], params)
	if err != nil {
		tb.Fatal(err)
	}
	return st
}

// BenchmarkShardQuery sweeps the shard count over the Fig. 5 large-N
// workload (`make bench-shard` -> BENCH_shard.json). Each P>1 sub-run
// reports its wall-clock speedup over the P=1 sub-run (close to 1 on a
// single core, where P only adds scatter-gather overhead; the gain comes
// from parallel scatter on multicore hosts) and the aggregate simulated
// page I/O per query, which grows mildly with P because every shard's tree
// is traversed. allocs/op grows by the fixed per-shard query set-up
// (processor, reader, traversal state, cache family): about 120 per shard.
func BenchmarkShardQuery(b *testing.B) {
	sb := setupShardBench(b)
	var p1NsPerOp float64
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			eng := openShardBench(b, sb, p)
			var io float64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st := shardBenchQuery(b, eng, sb, i)
				io += float64(st.IOCost)
			}
			b.StopTimer()
			b.ReportMetric(io/float64(b.N), "pages/query")
			nsPerOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			if p == 1 {
				p1NsPerOp = nsPerOp
			} else if p1NsPerOp > 0 {
				b.ReportMetric(p1NsPerOp/nsPerOp, "speedup")
			}
		})
	}
}

// TestShardScalingGate is the CI benchmark gate for the sharding
// subsystem (`make bench-shard-smoke`). On the N=800 workload, pinned to
// one core, it enforces:
//
//   - time: P=4 ns/op must stay within 1.15x of P=1. Until the leaf-level
//     source join, P=4 was 2x faster than P=1 on one core — the quadratic
//     leaf scan shrank with the per-shard trees — and the gate asked for
//     1.5x; that scan is gone, the descent now costs the same over four
//     small trees as over one (measured 0.84x–0.88x of P=1), and what is
//     left to guard is the scatter-gather overhead itself. The margin is
//     the measured ratio plus runner noise.
//   - allocations: at most 2500 allocs/op at P=1 and at P=8 (measured 984
//     and 1816). The former "P=8 within 1.1x of P=1" divided by 12.8k
//     allocations, 11k of them temporaries of the leaf scan; without them
//     the fixed per-shard set-up (about 120 allocations) is visible, so
//     the bound is absolute. It still fails if per-query scratch stops
//     being pooled (the arenas' purpose): that alone costs thousands.
//
// Gated behind BENCH_SHARD=1 so ordinary `go test` runs — and loaded CI
// machines running the race detector — never flake on timing.
func TestShardScalingGate(t *testing.T) {
	if os.Getenv("BENCH_SHARD") != "1" {
		t.Skip("set BENCH_SHARD=1 to run the shard scaling gate")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	sb := setupShardBench(t)
	run := func(p int) testing.BenchmarkResult {
		eng := openShardBench(t, sb, p)
		i := 0
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				shardBenchQuery(b, eng, sb, i)
				i++
			}
		})
	}
	p1 := run(1)
	p4 := run(4)
	p8 := run(8)
	t.Logf("one core: P=1 %v ns/op %v allocs/op, P=4 %v ns/op (%.2fx of P=1), P=8 %v ns/op %v allocs/op",
		p1.NsPerOp(), p1.AllocsPerOp(), p4.NsPerOp(),
		float64(p4.NsPerOp())/float64(p1.NsPerOp()), p8.NsPerOp(), p8.AllocsPerOp())
	if float64(p4.NsPerOp()) > 1.15*float64(p1.NsPerOp()) {
		t.Errorf("P=4 scatter-gather costs more than 1.15x P=1 on one core: %v ns/op vs %v ns/op (%.2fx)",
			p4.NsPerOp(), p1.NsPerOp(), float64(p4.NsPerOp())/float64(p1.NsPerOp()))
	}
	const maxAllocs = 2500
	if p1.AllocsPerOp() > maxAllocs || p8.AllocsPerOp() > maxAllocs {
		t.Errorf("allocations above %d per query: P=1 %d allocs/op, P=8 %d allocs/op",
			maxAllocs, p1.AllocsPerOp(), p8.AllocsPerOp())
	}
}
