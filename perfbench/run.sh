#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout, then runs it:
#
#   bash perfbench/run.sh --workload search-cold --seed 1 --seconds 36 --trace 0
#
# The binary, the Go build cache and every file a run writes stay under
# .bench_build/perfbench. The build is skipped while the binary is newer
# than every Go source and go.mod in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build/perfbench"
bin="$out/perfbench"
mkdir -p "$out/gocache" "$out/tmp"
stale=yes
if [[ -x "$bin" ]]; then
	stale=$(find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -newer "$bin" -print -quit)
fi
if [[ -n "$stale" ]]; then
	(
		cd perfbench
		env GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
			GOMODCACHE="$out/gopath/pkg/mod" GOENV=off GOFLAGS=-mod=mod GOPROXY=off \
			GOTOOLCHAIN=local GOWORK=off go build -o "$bin" .
	) >&2
fi
exec "$bin" "$@"
