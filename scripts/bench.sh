#!/usr/bin/env bash
# bench.sh — run the go-test microbenchmark suites and emit one
# machine-readable artifact, so their trajectory across PRs can be read
# from CI artifacts instead of hand-copied tables:
#
#   {"schema": "triclust-bench/v3", "benchmarks": [{name, cpus, ns_per_op, …}]}
#
# This file is the one list of tracked microbenchmarks: CI's bench job runs
# it once for the artifact, and bench-compare runs it on a PR's head and on
# its merge base and feeds the raw `go test -bench` lines it prints on
# stdout to benchstat.
#
# This is not the repository's benchmark: load against a running daemon is
# generated, measured and gated by bench/ + BENCHMARK.json alone
# (bench/README.md).
#
# Usage:
#   scripts/bench.sh [output.json]
#
# Environment:
#   BENCHTIME         per-benchmark -benchtime for the library and kernel
#                     suites (default 10x)
#   DAEMON_BENCHTIME  -benchtime for the daemon persistence comparison
#                     (default 500x: a 500-batch stream)
#   READ_BENCHTIME    -benchtime for the read-under-ingest comparison
#                     (default 2s: time-based, so the background ingest
#                     loop lands several full snapshot+fsync cycles in
#                     every measurement window)
#   CONFORM_BENCHTIME -benchtime for the conformance-scoring microbench
#                     (default 1000x: scoring one batch against a warm
#                     profile is nanoseconds, so it needs iterations)
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=${1:-BENCH.json}
BENCHTIME=${BENCHTIME:-10x}
DAEMON_BENCHTIME=${DAEMON_BENCHTIME:-500x}
READ_BENCHTIME=${READ_BENCHTIME:-2s}
CONFORM_BENCHTIME=${CONFORM_BENCHTIME:-1000x}

RAW=$(mktemp)
trap 'rm -f "$RAW"' EXIT

# suite PKG ARGS... runs the benchmarks ARGS select in package directory PKG,
# or skips them when this checkout has no such package (an older merge base).
suite() {
    local pkg=$1
    shift
    if [ ! -d "$pkg" ]; then
        echo "bench.sh: no $pkg in this checkout; skipped" >&2
        return
    fi
    go test -run xxx -benchmem "$@" "./$pkg" | tee -a "$RAW"
}

LIB_BENCHES='BenchmarkProcessWarm|BenchmarkOnlineStep|BenchmarkOffline|BenchmarkTable4TweetComparison|BenchmarkTable5UserComparison|BenchmarkTokenizePipeline|BenchmarkGraphBuild|BenchmarkSnapshot|BenchmarkRestore'

# The solver and the kernels under it run at -cpu 1,4: the par kernels follow
# GOMAXPROCS, so on a multi-core runner the artifact records the parallel
# speedup of the solver and baseline hot paths.
suite . -bench "$LIB_BENCHES" -benchtime "$BENCHTIME" -cpu 1,4
for pkg in internal/mat internal/sparse internal/baseline; do
    suite "$pkg" -bench . -benchtime "$BENCHTIME" -cpu 1,4
done
# The daemon persistence bench runs at -cpu 1,4: the hot path (solver +
# journal fsync) follows GOMAXPROCS through the parallel kernels, so the
# artifact records the multi-core profile wherever the runner has cores
# (on a 1-CPU container both rows coincide) — the ROADMAP's open item on
# multi-core numbers reads them from here.
suite cmd/triclustd -bench BenchmarkDaemonBatchPersist -benchtime "$DAEMON_BENCHTIME" -cpu 1,4
# The read-plane comparison also runs at -cpu 1,4. On one core the gap is
# bounded by CPU sharing (readers and the writer time-slice either way);
# the RCU read path's headline property — reads do not queue behind a
# solve + snapshot fsync at all — only shows its full size when spare
# cores exist for the blocked readers to have run on, so the 4-core rows
# are the ones the ROADMAP trajectory tracks.
suite cmd/triclustd -bench BenchmarkReadsUnderIngest -benchtime "$READ_BENCHTIME" -cpu 1,4
# The conformance-gate microbench: scoring one batch observation against
# a warm profile. This cost sits on every ingest in every mode
# (accumulation never turns off), so the artifact tracks it per-PR; it
# must stay noise against the solve (at most 5% of a warm Process).
suite internal/conform -bench BenchmarkConformScore -benchtime "$CONFORM_BENCHTIME" -cpu 1,4
# Corpus generation: every bench/ workload starts from a synth.Generate
# corpus, and it is most of setup_s on three of the four, so the artifact
# tracks it too.
suite internal/synth -bench BenchmarkGenerate
# The corpus windowing layer: offline_refit's prefix cuts (Corpus.Slice)
# and a long-lived builder's daily snapshots (SnapshotBuilder.Build).
suite internal/tgraph -bench 'BenchmarkCorpusSlice|BenchmarkSnapshotBuilderWindow'

awk -v out="$OUT" '
BEGIN { n = 0 }
/^Benchmark/ {
    name = $1
    cpus = ""
    if (match(name, /-[0-9]+$/)) {
        cpus = substr(name, RSTART + 1)
        name = substr(name, 1, RSTART - 1)
    }
    iters = $2
    ns = ""; bytes = ""; allocs = ""; p99 = ""; max = ""; batches = ""; snap = ""
    for (i = 3; i < NF; i++) {
        if ($(i+1) == "ns/op") ns = $i
        if ($(i+1) == "B/op") bytes = $i
        if ($(i+1) == "allocs/op") allocs = $i
        if ($(i+1) == "p99-ns") p99 = $i
        if ($(i+1) == "max-ns") max = $i
        if ($(i+1) == "batches") batches = $i
        if ($(i+1) == "snapshot-bytes") snap = $i
    }
    rec = sprintf("  {\"name\": \"%s\", \"iterations\": %s", name, iters)
    if (cpus != "")    rec = rec sprintf(", \"cpus\": %s", cpus)
    if (ns != "")      rec = rec sprintf(", \"ns_per_op\": %s", ns)
    if (bytes != "")   rec = rec sprintf(", \"bytes_per_op\": %s", bytes)
    if (allocs != "")  rec = rec sprintf(", \"allocs_per_op\": %s", allocs)
    if (p99 != "")     rec = rec sprintf(", \"p99_ns\": %s", p99)
    if (max != "")     rec = rec sprintf(", \"max_ns\": %s", max)
    if (batches != "") rec = rec sprintf(", \"batches\": %s", batches)
    if (snap != "")    rec = rec sprintf(", \"snapshot_bytes\": %s", snap)
    rec = rec "}"
    recs[n++] = rec
}
END {
    printf "{\n\"schema\": \"triclust-bench/v3\",\n\"benchmarks\":\n[\n" > out
    for (i = 0; i < n; i++) printf "%s%s\n", recs[i], (i < n-1 ? "," : "") >> out
    printf "]\n}\n" >> out
}
' "$RAW"

echo "wrote $OUT ($(wc -c < "$OUT") bytes)" >&2
