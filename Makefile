# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test race cover bench bench-figures bench-json bench-smoke bench-shard bench-shard-smoke bench-plan bench-plan-smoke bench-traverse experiments experiments-full fmt fmt-check vet metrics-smoke persist-smoke cluster-smoke clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# -short keeps the Monte Carlo sizes CI-friendly under the race detector.
race:
	$(GO) test -race -short ./...

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -25

bench:
	$(GO) test -bench=. -benchmem ./...

# Only the per-figure benchmarks (fast sanity pass).
bench-figures:
	$(GO) test -bench='BenchmarkFig' -benchtime=1x .

# Inference-kernel benchmarks -> BENCH_inference.json (ns/op, allocs/op,
# derived batch-vs-scalar speedups), from the draw kernel up: one
# permutation, one Lemma-3 E(Z) estimate, one edge probability, one query
# graph. ParallelQuery runs at 1x so the sweep stays minutes-scale. The
# committed file is recorded with GOMAXPROCS=1 in the environment.
bench-json:
	{ $(GO) test -run xxx -bench 'BenchmarkPermuteInto' -benchmem ./internal/randgen ; \
	  $(GO) test -run xxx -bench 'BenchmarkExpectedPermDistance|BenchmarkInferPruned|BenchmarkEdgeProbabilityScalar|BenchmarkEdgeProbabilityBatch' -benchmem . ; \
	  $(GO) test -run xxx -bench 'BenchmarkParallelQuery' -benchtime=1x -benchmem . ; } \
	| $(GO) run ./cmd/imgrn-benchjson > BENCH_inference.json
	@cat BENCH_inference.json

# CI gate: short fixed-size measurement asserting the batched inference
# kernel is not slower than the scalar path it replaces.
bench-smoke:
	BENCH_SMOKE=1 $(GO) test -run TestBatchNotSlowerThanScalar -v .

# Sharded scatter-gather sweep (P = 1, 2, 4, 8 over the Fig. 5 large-N
# workload) -> BENCH_shard.json (ns/op, pages/query, P-vs-1 speedups).
bench-shard:
	$(GO) test -run xxx -bench 'BenchmarkShardQuery' -benchmem . \
	| $(GO) run ./cmd/imgrn-benchjson > BENCH_shard.json
	@cat BENCH_shard.json

# CI gate: on the large-N workload, pinned to one core, a P=4
# scatter-gather query must cost at most 1.15x the P=1 engine, and a query
# must stay under 2500 allocations at P=1 and P=8 (arena scratch reuse).
bench-shard-smoke:
	BENCH_SHARD=1 $(GO) test -run TestShardScalingGate -v .

# Adaptive planner vs fixed pipeline on the mixed easy/hard workload ->
# BENCH_plan.json (ns/op, allocs/op, derived adaptive-vs-fixed speedup).
bench-plan:
	$(GO) test -run xxx -bench 'BenchmarkPlanQuery' -benchmem . \
	| $(GO) run ./cmd/imgrn-benchjson > BENCH_plan.json
	@cat BENCH_plan.json

# CI gate: a warmed adaptive planner must never be more than 1.1x slower
# than the fixed pipeline on the mixed easy/hard workload.
bench-plan-smoke:
	BENCH_PLAN=1 $(GO) test -run TestPlanNotSlowerThanFixed -v .

# Traversal micro-benchmarks as JSON on stdout: one leaf-pair source join
# (fill 32, hit rate swept) and one online add + remove on an N=300 index.
bench-traverse:
	$(GO) test -run xxx -bench 'BenchmarkTraverseLeafJoin|BenchmarkIndexAddRemove' -benchmem . \
	| $(GO) run ./cmd/imgrn-benchjson

# The paper's evaluation at CI scale / Table-2 scale.
experiments:
	$(GO) run ./cmd/imgrn-bench -exp all

experiments-full:
	$(GO) run ./cmd/imgrn-bench -exp all -mode full

fmt:
	gofmt -w .

# Fails when any file is not gofmt-clean (CI gate).
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# End-to-end observability smoke test: real server, /healthz, /metrics
# family assertions, slow-query log (see scripts/metrics_smoke.sh).
metrics-smoke:
	sh scripts/metrics_smoke.sh

# End-to-end crash-durability smoke test: durable server, mutation storm,
# kill -9, warm restart, byte-identical answers, no re-embedding (see
# scripts/persist_smoke.sh and DESIGN.md §12).
persist-smoke:
	sh scripts/persist_smoke.sh

# End-to-end distributed-serving smoke test: 3 durable shard servers +
# scatter-gather coordinator, replicated mutations, kill -9 failover,
# warm rejoin, byte-identical answers throughout (see
# scripts/cluster_smoke.sh and DESIGN.md §15).
cluster-smoke:
	sh scripts/cluster_smoke.sh

clean:
	rm -f cover.out
