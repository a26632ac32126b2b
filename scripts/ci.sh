#!/usr/bin/env bash
# CI entry point: the same gate a developer runs locally with `make check`,
# the archived lint report, the race-enabled pass over the concurrent
# packages, the golden-regen guard and the fuzz passes. Kept as a script
# so the GitHub workflow, local hooks and any other automation stay in
# lockstep.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== make check (gofmt, go vet, repolint, build, tests) =="
make check

# Machine-readable lint report: every finding, suppressed ones included,
# archived as a build artifact so a review can audit what the
# //repolint:allow comments currently waive without re-running the tool.
echo "== repolint -format=json: archive machine-readable report =="
mkdir -p artifacts
lint_start=$(date +%s)
go run ./cmd/repolint -format=json >artifacts/repolint.json
lint_end=$(date +%s)
echo "repolint: full-module JSON pass took $((lint_end - lint_start))s," \
	"$(grep -c '"check"' artifacts/repolint.json || true) finding(s) archived"

# make race runs every internal/live and internal/history test under
# -race (no -short), and make check already ran every engine, protocol
# and netmodel test, golden trajectories included.
echo "== race detector: live cluster + history audit =="
make race

# A change to the golden file is a change to every pinned trajectory; it
# must never ride along unannounced. If HEAD touches the goldens, the
# commit message body has to carry a "golden-regen:" line explaining the
# regeneration (go test ./internal/engine -run TestGoldenTrajectories -update).
GOLDEN=internal/engine/testdata/golden_trajectories.txt
if git rev-parse --verify -q HEAD^ >/dev/null &&
	! git diff --quiet HEAD^ HEAD -- "$GOLDEN"; then
	echo "== golden file changed in HEAD; checking for a golden-regen note =="
	if ! git log -1 --format=%B | grep -q '^golden-regen:'; then
		echo "FAIL: $GOLDEN changed without a 'golden-regen:' note in the commit" >&2
		echo "message body. Regenerate deliberately and say why, e.g.:" >&2
		echo "    golden-regen: MR1W gate change moves every g-2PL trajectory" >&2
		exit 1
	fi
fi

echo "== fuzz: forward-list reorder + precedence-graph invariants (10s each) =="
go test ./internal/fwdlist -run '^$' -fuzz FuzzForwardListReorder -fuzztime 10s
go test ./internal/prec -run '^$' -fuzz FuzzPrecAcyclic -fuzztime 10s

echo "== fuzz: 2PC coordinator/participant atomicity (10s) =="
go test ./internal/protocol -run '^$' -fuzz FuzzCoordinator2PC -fuzztime 10s

echo "CI gate passed."
