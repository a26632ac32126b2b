#!/usr/bin/env bash
# bench.sh — regenerate the benchmark trajectory (ROADMAP "raw speed",
# measurement half). Three suites, one JSON artifact:
#
#   1. protocol-core micro-benches: the per-operation cost of the pure
#      state machines (grant path, window dispatch, recall round trip);
#   2. DES engine runs: kernel events/sec and commits/sec per protocol;
#   3. live cluster: end-to-end commits/sec per protocol, goroutines,
#      mailboxes and shutdown included.
#
# Usage: scripts/bench.sh [out.json]     (default BENCH_9.json)
#
# The output is committed so perf regressions are visible in review the
# same way golden-hash breaks are; absolute numbers are machine-bound,
# so compare like with like (same host, -count=1 noise accepted).
set -euo pipefail

cd "$(dirname "$0")/.."
out=${1:-BENCH_9.json}
raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

echo "== protocol-core micro-benches ==" >&2
go test ./internal/protocol -run '^$' -count=1 -benchmem \
	-bench 'BenchmarkGrantPath$|BenchmarkForwardListDispatch$|BenchmarkRecallRoundTrip$' \
	| tee -a "$raw" >&2

echo "== DES engines: events/sec, commits/sec ==" >&2
go test ./internal/engine -run '^$' -count=1 -bench 'Run$' \
	| tee -a "$raw" >&2

echo "== live cluster: commits/sec ==" >&2
go test ./internal/live -run '^$' -count=1 -bench 'BenchmarkLiveCluster' \
	| tee -a "$raw" >&2

# Fold the `go test -bench` lines into one JSON document. Each line is
#   BenchmarkName[-P]  iters  value unit  value unit ...
# and every value/unit pair becomes a field keyed by its unit.
# The suite is named after the output file: BENCH_9.json is "bench_9".
suite=$(basename "$out" .json | tr '[:upper:]' '[:lower:]')
awk -v suite="$suite" -v goversion="$(go version | { read -r _ _ v _; echo "$v"; })" '
BEGIN {
	printf "{\n  \"suite\": \"%s\",\n  \"go\": \"%s\",\n  \"benches\": [\n", suite, goversion
	sep = ""
}
/^Benchmark/ {
	name = $1
	sub(/^Benchmark/, "", name)
	sub(/-[0-9]+$/, "", name)
	printf "%s    {\"name\": \"%s\", \"iters\": %s", sep, name, $2
	for (i = 3; i + 1 <= NF; i += 2)
		printf ", \"%s\": %s", $(i + 1), $i
	printf "}"
	sep = ",\n"
}
END { print "\n  ]\n}" }
' "$raw" >"$out"

echo "wrote $out:" >&2
cat "$out"
