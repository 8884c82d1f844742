#!/usr/bin/env bash
# arch-boundaries-check.sh — keep the layering honest.
#
# The package graph encodes the architecture: core is the paper's
# solver (no knowledge of sessions or serving), engine orchestrates it,
# and conform is a freestanding statistics library that both the engine
# and the codec embed — it must never grow a dependency back into the
# layers that use it, or the "accumulate everywhere, enforce at the
# engine" design rots into a cycle. go list -deps makes these rules
# checkable, so a violating import fails CI with the offending edge
# instead of surviving until a refactor trips over it.
#
# Usage: scripts/arch-boundaries-check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0
forbid() {
    local pkg=$1 pattern=$2 why=$3
    local hits
    hits=$(go list -deps "$pkg" | grep -E -x "$pattern" || true)
    if [ -n "$hits" ]; then
        echo "BOUNDARY: $pkg must not depend on: $(echo "$hits" | tr '\n' ' ')" >&2
        echo "          ($why)" >&2
        fail=1
    fi
}

# The solver core is below the engine; an upward import is a layering
# inversion.
forbid triclust/internal/core 'triclust/internal/engine' \
    "core is the paper's algorithm; engine orchestrates core, never the reverse"

# conform is a leaf statistics library: the engine scores with it and
# the codec serializes it, so a dependency on either (or on the daemon)
# would be a cycle through its own consumers.
forbid triclust/internal/conform 'triclust/internal/engine|triclust/cmd(/.*)?' \
    "conform is embedded by the engine and the codec; it cannot import its consumers"

# Stronger form of the same rule: conform depends on nothing else in
# this module at all (stdlib only), so it stays embeddable anywhere.
leaf_deps=$(go list -deps triclust/internal/conform | grep '^triclust' | grep -v -x 'triclust/internal/conform' || true)
if [ -n "$leaf_deps" ]; then
    echo "BOUNDARY: triclust/internal/conform must stay stdlib-only, but depends on: $(echo "$leaf_deps" | tr '\n' ' ')" >&2
    fail=1
fi

# internal/store owns the data directory and nothing else: it must stay
# usable without the HTTP layer, and can never reach back into a command.
forbid triclust/internal/store 'net/http|triclust/cmd(/.*)?' \
    "store is disk mechanism below the daemon; HTTP and commands are its callers"

# internal/cluster is placement arithmetic and the Tombstone type; the
# tombstone's file I/O — its only use of the failpoint layer — lives in
# internal/store.
forbid triclust/internal/cluster 'triclust/internal/fault' \
    "cluster decides ownership; internal/store does the file I/O"

# The daemon reaches disk only through internal/store's verbs. A direct
# import of the journal (checked on Imports, not -deps: the store brings
# it in transitively) would mean a handler holds a journal.Writer again.
direct=$(go list -f '{{join .Imports "\n"}}' triclust/cmd/triclustd | grep -x 'triclust/internal/journal' || true)
if [ -n "$direct" ]; then
    echo "BOUNDARY: triclust/cmd/triclustd must not import triclust/internal/journal directly" >&2
    echo "          (durable writes go through internal/store)" >&2
    fail=1
fi

# The daemon's request spine is written once: every request resolves who
# holds the name (resolve), is admitted against the topic's one state
# (admit), and is refused with one error value (apiError); every byte to
# another shard leaves through one client (peer.go). A second copy of any
# of these is how the handlers drifted apart before, so the shapes that
# would be one are counted in the non-test sources.
daemon=$(ls cmd/triclustd/*.go | grep -v '_test\.go$')
where=cmd/triclustd sources=$daemon
expect() {
    local want=$1 pattern=$2 why=$3 got
    got=$(cat $sources | grep -c -F -- "$pattern" || true)
    if [ "$got" -ne "$want" ]; then
        echo "SPINE: $where has $got x '$pattern', want $want ($why)" >&2
        fail=1
    fi
}
expect 1 'http.NewRequestWithContext(' "peerClient.once builds every inter-shard request"
expect 1 'http.Client{' "one client on one injectable transport"
expect 1 'http.Redirect(' "a shard answers 307 for a topic it does not hold; it relays no client request"
expect 0 'int, string, error)' "refusals travel as *apiError, not (status, code, err)"
expect 0 '.deleted' "a topic's condition is its one atomic state; see admit"
expect 1 'delete(s.topics' "retire is the only way out of the registry"
for gone in shipError installResponse writeGate readGate shardGate postOnce putSnapshot queryPlacement; do
    if grep -n -w -- "$gone" $daemon >&2; then
        echo "SPINE: $gone is back in cmd/triclustd (see admit / apiError / peerClient)" >&2
        fail=1
    fi
done
stray=$(awk '
    /^func / { fn = $0 }
    /s\.moved\[/ && !/s\.moved\[[^]]*\] = / && fn !~ /\) (resolve|tryRegister)\(/ { print FILENAME ": " $0 }
' $daemon)
if [ -n "$stray" ]; then
    echo "SPINE: the tombstone map is read outside resolve/tryRegister:" >&2
    echo "$stray" >&2
    fail=1
fi
# A mis-routed request has one answer, the 307 above: the relay that once
# stood beside it (its loop-guard header, its flag) stays gone.
relay=$(grep -rnE --include='*.go' 'X-Triclust-Forwarded|cluster-proxy' . | grep -v '_test\.go:' || true)
if [ -n "$relay" ]; then
    echo "SPINE: a second forwarding path is back (a shard answers 307; it relays no client request):" >&2
    echo "$relay" >&2
    fail=1
fi
# The daemon has one background lifetime: server.spawn starts every
# goroutine but main's listener, under the server's context, and Close
# waits for them. The reconcile loop works from the followers' recorded
# state, so the event-fed queue that stood beside it (its enqueue, its
# peer-up sweep, its channel of topic names, its pacing timer) stays gone.
launches=$(grep -nE '^[[:space:]]*go [^[:space:]]' $daemon || true)
if [ "$(echo "$launches" | grep -c .)" -ne 2 ]; then
    echo "SPINE: cmd/triclustd must launch exactly two goroutines, main's ListenAndServe and server.spawn; found:" >&2
    echo "$launches" >&2
    fail=1
fi
expect 1 'time.After(' "the peer client's retry backoff; background loops tick until the server's context ends"
for gone in enqueueResync resyncAllLocal 'chan string'; do
    if grep -n -w -- "$gone" $daemon >&2; then
        echo "SPINE: $gone is back in cmd/triclustd (the reconcile loop reads followerState; see needsResync)" >&2
        fail=1
    fi
done
# Failover is reconciled the same way: the tick promotes a replica whose
# recorded source is down, so the peer-down event handler and its sweep
# stay gone, and the detector's probe loops run in the same lifetime (it
# exports Watch, launches nothing itself and calls back nobody).
for gone in onPeerChange promoteFrom; do
    if grep -n -w -- "$gone" $daemon >&2; then
        echo "SPINE: $gone is back in cmd/triclustd (reconcileLoop promotes from recorded state; see maybePromote)" >&2
        fail=1
    fi
done
detector=$(ls internal/cluster/*.go | grep -v '_test\.go$')
if grep -nE '^[[:space:]]*go [^[:space:]]' $detector >&2; then
    echo "SPINE: internal/cluster launches a goroutine (its probe loop runs through the daemon's server.spawn; see Detector.Watch)" >&2
    fail=1
fi
if grep -n -w onChange $detector >&2; then
    echo "SPINE: onChange is back in internal/cluster (the reconcile tick reads Detector.Down; nothing is called back)" >&2
    fail=1
fi

# The same count for what the library writes once: Algorithm 1 and
# Algorithm 2 share one solver loop (the sweep order is data), the graph
# construction lives in SnapshotBuilder.buildGraphInto with tgraph.Build as
# its one-shot form, and bench/ is the only traffic generator (BENCHMARK.json
# the only load contract). Each had a hand-kept twin once.
where=internal/core sources=$(ls internal/core/*.go | grep -v '_test\.go$')
expect 1 'it < cfg.MaxIter' "iterate is the solver loop of FitOffline and Online.Step"
where=internal/tgraph/build.go sources=internal/tgraph/build.go
expect 0 'NewCOO' "Build assembles no matrix itself; see buildGraphInto"
expect 0 '.Add(' "Build assembles no matrix itself; see buildGraphInto"
# The retired generator's name is spelled in two halves so that this file
# passes its own rule.
retired=load
retired+=gen
if [ -e "cmd/$retired" ] || grep -rn -- "$retired" scripts/ >&2; then
    echo "SPINE: cmd/$retired or a script that drives it is back (load is generated by bench/ alone)" >&2
    fail=1
fi

# A kernel is a row loop with one launch: par.Blocks is the split rule,
# and par.Run takes a closure that only the branch of several blocks
# builds, so a one-block launch allocates nothing without a pool. The
# layer that stood in for that (a loop-body interface, a pooled body type
# per kernel, closure adapters beside it, a second copy of the rule in a
# kernel, a second rule in par.Serial) stays gone, and no library code
# reads the width: a reduction sizes its partials from par.Blocks, so its
# bits do not depend on par.Procs(). Only the daemon's start-up log line
# reports it.
where='internal/par, internal/mat and internal/sparse'
sources=$(ls internal/par/*.go internal/mat/*.go internal/sparse/*.go | grep -v '_test\.go$')
expect 0 'sync.Pool' "a kernel launch is inline or par.Run, never a pooled body"
rule=$(grep -rlw --include='*.go' MinParallelWork . | grep -v -e '_test\.go$' -e '^\./internal/par/' -e '^\./bench/' || true)
if [ -n "$rule" ]; then
    echo "SPINE: the split rule is restated outside internal/par (ask par.Blocks):" >&2
    echo "$rule" >&2
    fail=1
fi
back=$(grep -rnE --include='*.go' 'par\.Body|par\.For\(|ForChunked|Range\(chunk|par\.Serial' . | grep -v '_test\.go:' || true)
if [ -n "$back" ]; then
    echo "SPINE: a second kernel launch is back (a kernel hands its row loop to par.Run):" >&2
    echo "$back" >&2
    fail=1
fi
width=$(grep -rn --include='*.go' 'par\.Procs()' . | grep -v -e '_test\.go:' -e '^\./internal/par/' -e '^\./bench/' -e '^\./cmd/triclustd/main\.go:' || true)
if [ -n "$width" ]; then
    echo "SPINE: library code reads the parallelism width (size partials from par.Blocks):" >&2
    echo "$width" >&2
    fail=1
fi

# The library has one way in and the solver one objective: Topic is the
# only API (Fit, Stream and the option struct of Fit are gone) and
# core.Config holds the paper's terms only (Eq. 1 / Eq. 19). The snapshot
# slots of the five removed extension knobs are reserved, and the comment
# that says so in internal/codec is the one place that may still name one.
back=$(grep -rnE --include='*.go' \
    'func Fit\(|type Stream struct|NewStream\(|applyExtensions|SparsityLambda' . \
    | grep -v '^\./internal/codec/codec\.go:[0-9]*://' || true)
if [ -n "$back" ]; then
    echo "SPINE: the second API or an extension regularizer is back (see triclust.go, internal/core/types.go):" >&2
    echo "$back" >&2
    fail=1
fi

# A Topic has one read path: every result and counter it reports is a field
# of the view its last writer published. The session's locked readers are
# gone, and none of Topic's accessors below may take a lock — a second read
# path is how Frozen() and ReadView().Frozen() came to disagree, and how
# healthz came to wait on a solve.
back=$(grep -nE 'func \(s \*Session\) (Batches|Skipped|LastTime|Progress|KnownUsers|UserEstimate)\(' \
    $(ls internal/engine/*.go | grep -v '_test\.go$') || true)
if [ -n "$back" ]; then
    echo "SPINE: a locked reader is back on engine.Session (read the View that BuildView publishes):" >&2
    echo "$back" >&2
    fail=1
fi
locked=$(awk '
    /^func / { fn = "" }
    /^func \(t \*Topic\) (Users|Batches|SkippedBatches|KnownUsers|LastTime|VocabSize|Frozen|FeatureSentiments|ConformanceReport|Predict|PredictTokenized|UserEstimate|Epoch|StreamPos|ReadView)\(/ { fn = $0 }
    fn != "" && /\.mu\.(R)?Lock\(/ { print FILENAME ": " fn }
' topic.go)
if [ -n "$locked" ]; then
    echo "SPINE: a Topic accessor that reports a result or a counter takes a lock (load t.view):" >&2
    echo "$locked" >&2
    fail=1
fi

# A snapshot is opaque outside internal/codec: the store moves it, the
# daemon ships it, the benchmark weighs it. A section tag or a matrix form
# named anywhere else means some other package has started to parse one.
inside=$(grep -rnwE --include='*.go' \
    'tag(End|Config|Lexicon|Vocab|Users|Counter|Online|Factors|Epoch|Conform)|form(Absent|Dense|Dict|Derived)' . \
    | grep -v '^\./internal/codec/' || true)
if [ -n "$inside" ]; then
    echo "BOUNDARY: snapshot section tags and matrix forms are internal/codec's alone:" >&2
    echo "$inside" >&2
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    echo "arch-boundaries-check: FAILED" >&2
    exit 1
fi
echo "arch-boundaries-check: OK"
