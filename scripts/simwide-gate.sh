#!/usr/bin/env bash
# simwide-gate.sh — run the cluster simulator's wide run (TestClusterSimWide:
# seeds 1–1,000, built with -tags simwide) and fail unless every seed ran
# and exactly the seeds in KNOWN failed.
#
# KNOWN is the set of seeds that known defects fail, each named by a FOUND:
# line in CHANGES.md. A seed that starts failing is a regression; a seed
# that starts passing leaves KNOWN in the change that turns its FOUND: line
# into MENDED:. A build failure, a panic or a timeout runs fewer than 1,000
# seeds and fails too. The output of every failing seed is printed, known
# or not; one replays alone with
#
#   go test -tags simwide -run 'TestClusterSimWide/^seed=N$' ./cmd/triclustd/
#
# Each passing seed logs the sha256 of its outcome (its events, what the
# shards logged during each, and the topics served at the end); given an
# output path (relative to the repository root), the script writes them
# there as "seed digest" lines, so two builds compare seed by seed (diff the
# two files). The digests do not enter the verdict.
#
# Usage (≈25 s on two cores; fsync dominates, so TMPDIR=/dev/shm helps):
#   scripts/simwide-gate.sh [digests.txt]
set -euo pipefail

DIGESTS=${1:-}

KNOWN="263 412 430 561 750 961 962 963"
SEEDS=1000

cd "$(dirname "$0")/.."
out=$(mktemp)
trap 'rm -f "$out"' EXIT
# go test exits non-zero on the known failures; the verdict is drawn below.
go test -tags simwide -json -run '^TestClusterSimWide$' ./cmd/triclustd/ >"$out" 2>&1 || true

# seeds prints, one a line, the seeds whose test ended with action $1.
seeds() {
	jq -rR --arg a "$1" 'fromjson? | select(.Action == $a and ((.Test // "") | test("^TestClusterSimWide/seed=[0-9]+$")))
		| .Test | ltrimstr("TestClusterSimWide/seed=")' "$out" | sort -n
}
failed=$(seeds fail)
if [ -n "$DIGESTS" ]; then
	jq -rR 'fromjson? | select(.Action == "output" and ((.Test // "") | test("^TestClusterSimWide/seed=[0-9]+$")))
		| (.Output | capture("outcome sha256 (?<d>[0-9a-f]{64})")) as $m
		| "\(.Test | ltrimstr("TestClusterSimWide/seed=")) \($m.d)"' "$out" | sort -n >"$DIGESTS"
fi
passed=$(seeds pass)
ran=$(printf '%s\n%s\n' "$failed" "$passed" | grep -c .) || true

# The failing seeds' output, and what belongs to no seed: a build error,
# a panic, the summary.
jq -rjR --arg f " $(echo $failed) " 'fromjson? // {Action: "output", Output: (. + "\n")}
	| select(.Action == "output" or .Action == "build-output")
	| select((.Test // "") as $t | $t == "" or $t == "TestClusterSimWide"
		or ($f | contains(" " + ($t | ltrimstr("TestClusterSimWide/seed=")) + " ")))
	| .Output' "$out"

want=$(printf '%s\n' $KNOWN | sort -n)
echo "simwide-gate: $ran of $SEEDS seeds ran; failing: $(echo $failed); known: $(echo $want)"
status=0
if [ "$ran" -ne "$SEEDS" ]; then
	echo "simwide-gate: $ran seeds ran, want $SEEDS"
	status=1
fi
new=$(comm -13 <(sort <<<"$want") <(sort <<<"$failed") | grep . | sort -n || true)
gone=$(comm -23 <(sort <<<"$want") <(sort <<<"$failed") | grep . | sort -n || true)
if [ -n "$new" ]; then
	echo "simwide-gate: newly failing seeds: $(echo $new)"
	status=1
fi
if [ -n "$gone" ]; then
	echo "simwide-gate: known seeds that pass now (mend their FOUND: line and drop them from KNOWN): $(echo $gone)"
	status=1
fi
exit $status
