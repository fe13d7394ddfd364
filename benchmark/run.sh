#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the harness (a module of its
# own in this directory) and runs it with the caller's arguments. The Go
# build cache, the binaries and every temporary file stay under
# .bench_build/ in the repository root, so a run reads and writes nothing
# outside its checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
go build -C benchmark -o "$build/bin/imgrn-benchmark" .
exec "$build/bin/imgrn-benchmark" "$@"
