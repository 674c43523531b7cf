#!/usr/bin/env bash
# run.sh builds the frontsim benchmark from the source tree it sits in and
# runs it with the given arguments. Run it from the repository root:
#
#   bash cmd/perfbench/run.sh --workload suite --seed 1 --seconds 45 --trace 0
#
# Everything it builds or writes stays under ./.bench_build, including the Go
# build cache, so a run touches nothing outside the checkout.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOENV=off
export GOFLAGS=
export GOWORK=off

(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -work "$build/work" "$@"
