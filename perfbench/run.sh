#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#   bash perfbench/run.sh --workload serve-sweep --seed 1 --seconds 10 --trace 0
# Run it from the repository root. Build outputs, the Go build cache and
# the run's stores all stay under .bench_build/ in that root.
set -euo pipefail
root=$(pwd)
mkdir -p "$root/.bench_build"
export GOCACHE="$root/.bench_build/gocache" GOPATH="$root/.bench_build/gopath"
export XDG_CONFIG_HOME="$root/.bench_build/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$root/.bench_build/perfbench" .)
exec "$root/.bench_build/perfbench" --workdir "$root/.bench_build" "$@"
