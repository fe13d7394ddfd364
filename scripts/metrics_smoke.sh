#!/bin/sh
# metrics_smoke.sh — end-to-end smoke test of the observability surface:
# builds the real binaries, generates a tiny database, starts imgrn-server,
# probes /healthz, runs one /query-graph request and
# one streamed /query-batch request, and asserts every metric family the
# DESIGN.md catalog promises is present in /metrics.
#
# Run via `make metrics-smoke`. Exits non-zero on any missing family.
set -eu

PORT="${SMOKE_PORT:-18977}"
TMP="$(mktemp -d)"
SERVER_PID=""
cleanup() {
    [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

echo "== building binaries"
go build -o "$TMP/imgrn-datagen" ./cmd/imgrn-datagen
go build -o "$TMP/imgrn-server" ./cmd/imgrn-server

echo "== generating tiny database"
"$TMP/imgrn-datagen" -out "$TMP/db.imgrn" -n 40 -nmin 8 -nmax 14 -lmin 10 -lmax 16 -pool 60 -seed 7

echo "== starting server on :$PORT"
"$TMP/imgrn-server" -db "$TMP/db.imgrn" -addr "127.0.0.1:$PORT" -slow-query 1ns >"$TMP/server.log" 2>&1 &
SERVER_PID=$!

i=0
until curl -fsS "http://127.0.0.1:$PORT/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -gt 50 ]; then
        echo "FAIL: server did not become healthy; log:" >&2
        cat "$TMP/server.log" >&2
        exit 1
    fi
    if ! kill -0 "$SERVER_PID" 2>/dev/null; then
        echo "FAIL: server exited; log:" >&2
        cat "$TMP/server.log" >&2
        exit 1
    fi
    sleep 0.2
done
echo "== /healthz ok"

echo "== running one query"
curl -fsS "http://127.0.0.1:$PORT/query-graph" -d '{
  "genes": ["1", "2"],
  "edges": [{"s": 0, "t": 1, "prob": 0.9}],
  "params": {"gamma": 0.5, "alpha": 0.5, "analytic": true, "trace": true}
}' >"$TMP/query.json"
grep -q '"stats"' "$TMP/query.json" || { echo "FAIL: query response lacks stats"; exit 1; }
grep -q '"trace"' "$TMP/query.json" || { echo "FAIL: traced query response lacks trace"; exit 1; }

echo "== running one NDJSON batch"
curl -fsS "http://127.0.0.1:$PORT/query-batch" -d '{
  "queries": [
    {"genes": ["1", "2"], "edges": [{"s": 0, "t": 1, "prob": 0.9}],
     "params": {"gamma": 0.5, "alpha": 0.5, "analytic": true}},
    {"genes": ["2", "3"], "edges": [{"s": 0, "t": 1, "prob": 0.8}],
     "params": {"gamma": 0.5, "alpha": 0.5, "analytic": true}}
  ]
}' >"$TMP/batch.ndjson"
[ "$(wc -l <"$TMP/batch.ndjson")" -eq 3 ] \
    || { echo "FAIL: batch response is not 3 NDJSON frames (2 items + done)"; cat "$TMP/batch.ndjson"; exit 1; }
tail -n 1 "$TMP/batch.ndjson" | grep -q '"done":true' \
    || { echo "FAIL: batch terminal frame lacks done:true"; exit 1; }

echo "== scraping /metrics"
curl -fsS "http://127.0.0.1:$PORT/metrics" >"$TMP/metrics.txt"

status=0
for family in \
    imgrn_requests_total \
    imgrn_request_errors_total \
    imgrn_query_seconds \
    imgrn_stage_seconds \
    imgrn_candidates_filtered_total \
    imgrn_candidates_refined_total \
    imgrn_edgeprob_cache_hits_total \
    imgrn_edgeprob_cache_misses_total \
    imgrn_reader_page_accesses_total \
    imgrn_reader_buffer_hits_total \
    imgrn_reader_pages \
    imgrn_requests_in_flight \
    imgrn_requests_shed_total \
    imgrn_slow_queries_total \
    imgrn_batch_requests_total \
    imgrn_batch_queries_total \
    imgrn_batch_size \
    imgrn_batch_item_errors_total; do
    if ! grep -q "^# TYPE $family " "$TMP/metrics.txt"; then
        echo "FAIL: family $family missing from /metrics" >&2
        status=1
    fi
done
[ "$status" -eq 0 ] || exit "$status"

# The queries above must have been counted and (with -slow-query 1ns)
# logged: batch items flow through the same per-query observation path as
# solo queries, so the two batch items count as slow queries too.
grep -q '^imgrn_requests_total{endpoint="query-graph"} 1$' "$TMP/metrics.txt" \
    || { echo "FAIL: query-graph request not counted"; exit 1; }
grep -q '^imgrn_slow_queries_total 3$' "$TMP/metrics.txt" \
    || { echo "FAIL: slow queries (1 solo + 2 batch items) not counted"; exit 1; }
grep -q 'slow query: endpoint=query-graph' "$TMP/server.log" \
    || { echo "FAIL: slow-query log line missing"; exit 1; }

# The batch above must have been counted: one request, two items.
grep -q '^imgrn_batch_requests_total 1$' "$TMP/metrics.txt" \
    || { echo "FAIL: batch request not counted"; exit 1; }
grep -q '^imgrn_batch_queries_total 2$' "$TMP/metrics.txt" \
    || { echo "FAIL: batch items not counted"; exit 1; }

echo "PASS: all metric families present, query counted, slow-query log fired"
