#!/usr/bin/env bash
# Builds the wall-clock HTAP benchmark from this checkout and runs it.
#
#   bash perfbench/run.sh --workload dashboard --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build and the run
# leave behind (Go build cache, binary, ingest data directories, span
# dumps) goes under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" GOTOOLCHAIN=local GOPROXY=off \
	GOWORK=off GOENV=off GOFLAGS= CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --state "$out" "$@"
