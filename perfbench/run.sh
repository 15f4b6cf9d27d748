#!/usr/bin/env bash
# Builds viralcast and the benchmark from this checkout and runs one
# benchmark invocation, e.g.
#
#   bash perfbench/run.sh --workload predict_hot --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh compare -spec BENCHMARK.json old-results new-results
#
# Run it from the root of the checkout. Everything it builds or writes
# goes under .bench_build/ there (Go's build cache included), so it reads
# and writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod

# Both builds fail outside a full checkout (no go.mod at the root), so
# a tree holding only the benchmark exits non-zero here without a result.
go build -o "$out/viralcast" ./cmd/viralcast
(cd "$root/perfbench" && go build -o "$out/perfbench" .)

if [[ "${1:-}" == compare ]]; then
	exec "$out/perfbench" "$@"
fi
# Flags may be given as --name value; Go's flag package takes both forms.
exec "$out/perfbench" -bin "$out/viralcast" -work "$out" "$@"
