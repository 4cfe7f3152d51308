#!/usr/bin/env bash
# Builds radioperf (and, through it, cmd/radiosd) from source and runs it.
# Run from the repository root; every argument is passed to radioperf:
#
#   bash bench/radioperf/run.sh --workload suite --seed 1 --seconds 12 --trace 0
#
# All build state (Go build cache, temporary files, binaries) stays under
# .bench_build/ in the current directory, and the toolchain is held to the
# local installation with no module proxy, so a run needs no network.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/radiosd || ! -f bench/radioperf/go.mod ]]; then
	echo "radioperf: run from the repository root (go.mod, cmd/radiosd and bench/radioperf must exist)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gomodcache"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off

go build -C bench/radioperf -o "$build/radioperf" .
exec "$build/radioperf" "$@"
