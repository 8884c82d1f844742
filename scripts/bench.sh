#!/usr/bin/env bash
# bench.sh — run the performance-tracking benchmark suite and emit a
# machine-readable BENCH.json artifact, so the perf trajectory
# across PRs can be consumed from CI artifacts instead of hand-copied
# tables. Since PR 10 the artifact is an object: "benchmarks" holds the
# go-test microbenchmark rows (same shape as the PR-9 array), and
# "loadgen" embeds the cmd/loadgen JSON-vs-binary wire-format comparison
# measured against a real daemon over HTTP.
#
# Usage:
#   scripts/bench.sh [output.json]
#
# Environment:
#   BENCHTIME         per-benchmark -benchtime for the library suite
#                     (default 10x)
#   DAEMON_BENCHTIME  -benchtime for the daemon persistence comparison
#                     (default 500x: the 500-batch stream of the PR-4
#                     acceptance criteria)
#   READ_BENCHTIME    -benchtime for the read-under-ingest comparison
#                     (default 2s: time-based, so the background ingest
#                     loop lands several full snapshot+fsync cycles in
#                     every measurement window)
#   CONFORM_BENCHTIME -benchtime for the conformance-scoring microbench
#                     (default 1000x: scoring one batch against a warm
#                     profile is nanoseconds, so it needs iterations)
#   LOADGEN_BATCHES   total batches per loadgen run (default 500: the
#                     same 500-batch daemon stream the persistence
#                     comparison tracks)
#   LOADGEN_TWEETS    tweets per batch (default 300)
#   LOADGEN_PORT      loopback port for the loadgen target daemon
#                     (default 8590)
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=${1:-BENCH.json}
BENCHTIME=${BENCHTIME:-10x}
DAEMON_BENCHTIME=${DAEMON_BENCHTIME:-500x}
READ_BENCHTIME=${READ_BENCHTIME:-2s}
CONFORM_BENCHTIME=${CONFORM_BENCHTIME:-1000x}
LOADGEN_BATCHES=${LOADGEN_BATCHES:-500}
LOADGEN_TWEETS=${LOADGEN_TWEETS:-300}
LOADGEN_PORT=${LOADGEN_PORT:-8590}

RAW=$(mktemp)
WORK=$(mktemp -d)
DAEMON_PID=""
cleanup() {
    [ -n "$DAEMON_PID" ] && kill "$DAEMON_PID" 2>/dev/null || true
    rm -rf "$RAW" "$WORK"
}
trap cleanup EXIT

LIB_BENCHES='BenchmarkProcessWarm|BenchmarkOnlineStep|BenchmarkOfflineFit|BenchmarkTable4TweetComparison|BenchmarkTable5UserComparison|BenchmarkTokenizePipeline|BenchmarkGraphBuild|BenchmarkSnapshot|BenchmarkRestore'

go test -run xxx -bench "$LIB_BENCHES" -benchtime "$BENCHTIME" -benchmem . | tee -a "$RAW"
# The daemon persistence bench runs at -cpu 1,4: the hot path (solver +
# journal fsync) follows GOMAXPROCS through the parallel kernels, so the
# artifact records the multi-core profile wherever the runner has cores
# (on a 1-CPU container both rows coincide) — the ROADMAP's open item on
# multi-core numbers reads them from here.
go test -run xxx -bench BenchmarkDaemonBatchPersist -benchtime "$DAEMON_BENCHTIME" -benchmem -cpu 1,4 ./cmd/triclustd/ | tee -a "$RAW"
# The read-plane comparison also runs at -cpu 1,4. On one core the gap is
# bounded by CPU sharing (readers and the writer time-slice either way);
# the RCU read path's headline property — reads do not queue behind a
# solve + snapshot fsync at all — only shows its full size when spare
# cores exist for the blocked readers to have run on, so the 4-core rows
# are the ones the ROADMAP trajectory tracks.
go test -run xxx -bench BenchmarkReadsUnderIngest -benchtime "$READ_BENCHTIME" -benchmem -cpu 1,4 ./cmd/triclustd/ | tee -a "$RAW"
# The conformance-gate microbench: scoring one batch observation against
# a warm profile. This cost sits on every ingest in every mode
# (accumulation never turns off), so the artifact tracks it per-PR; it
# must stay noise against the solve (the PR-8 bar caps warm Process
# overhead at 5%).
go test -run xxx -bench BenchmarkConformScore -benchtime "$CONFORM_BENCHTIME" -benchmem -cpu 1,4 ./internal/conform/ | tee -a "$RAW"

# ——— loadgen stage: the wire-format comparison over real HTTP ———
# A persistent single-shard daemon takes the same 500-batch stream in
# both wire formats: closed-loop legs measure ingest capacity per
# format, then -rate auto replays both formats open-loop at the JSON
# capacity, which is where the p99-at-equal-offered-load gap shows.
go build -o "$WORK/triclustd" ./cmd/triclustd
go build -o "$WORK/loadgen" ./cmd/loadgen
"$WORK/triclustd" -addr "127.0.0.1:$LOADGEN_PORT" -data-dir "$WORK/data" \
    >"$WORK/daemon.log" 2>&1 &
DAEMON_PID=$!
for _ in $(seq 50); do
    curl -fsS "http://127.0.0.1:$LOADGEN_PORT/healthz" >/dev/null 2>&1 && break
    sleep 0.1
done
"$WORK/loadgen" -targets "http://127.0.0.1:$LOADGEN_PORT" \
    -topics 4 -users 60 -tweets-per-batch "$LOADGEN_TWEETS" \
    -batches "$LOADGEN_BATCHES" -rate auto -format both \
    -topic-prefix bench -out "$WORK/loadgen.json"
kill "$DAEMON_PID" 2>/dev/null || true
wait "$DAEMON_PID" 2>/dev/null || true
DAEMON_PID=""

awk -v out="$WORK/benchmarks.json" '
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
    printf "[\n" > out
    for (i = 0; i < n; i++) printf "%s%s\n", recs[i], (i < n-1 ? "," : "") >> out
    printf "]\n" >> out
}
' "$RAW"

{
    printf '{\n"schema": "triclust-bench/v2",\n"benchmarks":\n'
    cat "$WORK/benchmarks.json"
    printf ',\n"loadgen":\n'
    cat "$WORK/loadgen.json"
    printf '}\n'
} > "$OUT"

echo "wrote $OUT ($(wc -c < "$OUT") bytes)"
