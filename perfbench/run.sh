#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, passing every
# argument through. Run from the repository root:
#
#   bash perfbench/run.sh --workload oneshot-artifacts --seed 1 --seconds 30 --trace 0
#
# The Go build cache and the binary live under .bench_build/ in the checkout,
# so nothing is written outside it. Outside a full checkout (no ../go.mod for
# the replace directive) the build fails and the script exits non-zero
# without printing a result.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local GOFLAGS=
go -C "$root/perfbench" build -o "$build/perfbench" .
PERFBENCH_COMMAND="bash perfbench/run.sh $*" exec "$build/perfbench" -root "$root" "$@"
