#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload design --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. The build cache, the binary and every
# file a workload writes stay under .bench_build in that root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
# Keep the Go toolchain's caches, temporary files and settings inside the
# checkout, and never fetch anything: the module has no dependencies.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOENV=off
export XDG_CONFIG_HOME="$build/config" TMPDIR="$build/tmp"

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"
