#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash _latbench/run.sh --workload live-hot --seed 1 --seconds 20 --trace 0
#   bash _latbench/run.sh compare base.jsonl next.jsonl
#
# Everything the build writes — binary, Go build cache, traced runs'
# spans — stays under .bench_build in the repository root.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal ]]; then
	echo "run.sh: run from the repository root (no go.mod/internal here)" >&2
	exit 2
fi
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

# Build to a private name and rename, so a concurrent run never executes
# a half-written binary.
(cd "$root/_latbench" && go build -o "$out/latbench.$$" .)
mv -f "$out/latbench.$$" "$out/latbench"
exec "$out/latbench" "$@"
