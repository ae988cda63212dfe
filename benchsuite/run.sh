#!/usr/bin/env bash
# Builds the impact benchmark suite from source and runs it. Every
# argument passes through to the suite binary. Run from the repository
# root, for example:
#
#   bash benchsuite/run.sh --workload warm-run --seed 1 --seconds 15 --trace 0
#
# Build cache, temp files and the binary all stay under .bench_build/ in
# the repository root, so a run reads and writes nothing outside it.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal/exp" ] || [ ! -d "$root/benchsuite" ]; then
	echo "run.sh: run from the repository root (go.mod, internal/exp or benchsuite missing)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

(cd "$root/benchsuite" && go build -o "$build/impact-suite" .)
exec "$build/impact-suite" "$@"
