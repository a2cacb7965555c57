#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload.
#
# Run from the root of a checkout:
#
#   bash perfbench/run.sh --workload paper-matrix --seed 1 --seconds 10 --trace 0
#
# Every build product, Go cache and temporary file stays under .bench_build/
# in the checkout; results land in perfbench/results/.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -d "$root/cmd/sramd" ]]; then
	echo "perfbench: run from the repository root (go.mod, internal/ and cmd/sramd not found)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/gotmp" "$build/tmp" "$build/xdg"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/gotmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/xdg"
export GOENV=off GOFLAGS= GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local

go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" --root "$root" "$@"
