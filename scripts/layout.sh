#!/usr/bin/env bash
# Prints where the lifetime and Monte Carlo hot functions land in the
# perfbench binary: each symbol's address mod 64, i.e. its offset in a
# cache line. lifetime-static CPU moves with these alignments, so a
# change to any linked package can shift a perf reading without
# touching the hot code; compare this output between two trees to see
# whether it did. Run it from the repository root:
#
#   bash scripts/layout.sh      # or: make layout
#
# The binary is built exactly as perfbench/run.sh builds it (same
# environment and Go build cache), into a temporary directory that is
# removed afterwards.
set -euo pipefail
root=$(pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$root/.bench_build"
export GOCACHE="$root/.bench_build/gocache" GOPATH="$root/.bench_build/gopath"
export XDG_CONFIG_HOME="$root/.bench_build/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$tmp/perfbench" .)
go tool nm -size "$tmp/perfbench" > "$tmp/nm.txt"
printf '%-34s %10s %6s %6s\n' symbol address size mod64
for sym in \
	'wsnbcast/internal/life.(*cellState).account' \
	'wsnbcast/internal/life.(*cellState).round' \
	'wsnbcast/internal/life.(*cellState).begin' \
	'wsnbcast/internal/life.(*cellState).quiet' \
	'wsnbcast/internal/life.debit' \
	'wsnbcast/internal/sim.(*engine).step' \
	'wsnbcast/internal/sim.(*Session).Run' \
	'wsnbcast/internal/mc.(*worker).replicate'; do
	line=$(awk -v s="$sym" '$4 == s && $3 == "T"' "$tmp/nm.txt")
	if [ -z "$line" ]; then
		printf '%-34s %10s\n' "${sym#wsnbcast/internal/}" missing
		continue
	fi
	addr=$(echo "$line" | awk '{print $1}')
	size=$(echo "$line" | awk '{print $2}')
	printf '%-34s %10s %6s %6d\n' "${sym#wsnbcast/internal/}" "$addr" "$size" $((16#$addr % 64))
done
