// Command triclustd serves dynamic tripartite sentiment co-clustering
// over a versioned HTTP/JSON API: a registry of named, durable topics,
// each a long-lived triclust.Topic fed one tweet batch per timestamp.
// Independent topics are served concurrently; batches within a topic
// serialize.
//
//	triclustd -addr :8547 -data-dir /var/lib/triclustd
//
// Endpoints (JSON unless noted):
//
//	GET    /healthz                          liveness
//	POST   /v1/topics                        create a topic
//	       {"name":"prop37","users":["a","b"],"options":{"k":3,"max_iter":40}}
//	GET    /v1/topics                        list topic summaries
//	GET    /v1/topics/{topic}                one topic's summary
//	PUT    /v1/topics/{topic}                restore a topic from a binary snapshot body
//	DELETE /v1/topics/{topic}                drop a topic (and its stored snapshot)
//	POST   /v1/topics/{topic}/batches        process one timestamped batch
//	       {"time":3,"tweets":[{"text":"love this","user":0}]}
//	POST   /v1/topics/{topic}/vocab          vocabulary warm-up before the freeze
//	       {"texts":["seed doc", ...],"freeze":false}
//	GET    /v1/topics/{topic}/users/{user}   latest sentiment estimate
//	GET    /v1/topics/{topic}/snapshot       durable binary snapshot (octet-stream)
//	GET    /v1/topics/{topic}/features       vocabulary + learned feature sentiments
//
// Errors carry structured bodies with stable codes:
//
//	{"error":{"code":"stale_timestamp","message":"time 3 not after last processed 4"}}
//
// Body-carrying endpoints validate Content-Type (415
// unsupported_media_type otherwise; an absent header selects the
// endpoint's default), and JSON request decoding is strict — trailing
// bytes after the JSON value are a 400. The batches endpoint also
// accepts application/x-triclust-batch, a CRC-framed binary batch
// request (see internal/codec), with identical semantics and error
// codes to the JSON form; Accept: application/x-triclust-batch selects
// the binary response frame on success. The repository benchmark drives
// each format over real HTTP (bench/: daemon_ingest binary, daemon_mixed
// JSON).
//
// With -data-dir set the daemon is durable: every accepted batch (and
// create/restore/warm-up) is persisted before the response is sent, the
// files are reloaded on startup, and SIGINT/SIGTERM triggers a graceful
// shutdown — in-flight batches drain, then every topic is snapshotted
// one final time. A restarted daemon serves the same user estimates it
// did before the restart.
//
// A batch becomes durable one way: its O(batch) record is fsync-appended
// to <dir>/<topic>.journal before the ack. The full O(state)
// snapshot <dir>/<topic>.snap is compaction: rewritten every
// -journal-every batches (or when the journal exceeds
// -journal-max-bytes), after which the journal is truncated; a failed
// compaction is counted in healthz and retried on the next batch, and
// never fails a batch the journal already holds. Startup recovery loads
// the snapshot and replays the journal tail through the same
// deterministic pipeline, verifying each record's post-batch fingerprint
// — recovered state is bit-identical to the pre-crash stream. A torn
// final record (crash mid-append) is truncated: it was never
// acknowledged.
//
// The first non-empty batch of a topic freezes its vocabulary (the online
// algorithm requires comparable feature spaces across snapshots) unless a
// vocab warm-up with "freeze":true fixed it earlier; batch times must
// strictly increase per topic; an empty batch is a recorded no-op. Batch
// results are independent of tweet ordering within a batch.
//
// # Topic states
//
// A topic is in exactly one state; one table (topicStates, degrade.go)
// says what a request gets from it:
//
//	serving    reads 200/304                        writes 200
//	read-only  reads 200/304 + X-Triclust-Degraded  writes 503 storage_degraded + Retry-After
//	retired    404 topic_not_found or, if the topic moved, 307 after its tombstone
//	           (503 handoff_pending while that hand-off has no verdict)
//
// A write changes a topic only once it is durable, so one whose durable
// step fails (503 storage_degraded for a batch, 500 storage_error for a
// warm-up) leaves the topic as it was and can be retried. Three failures
// in a row (ENOSPC at once) make a topic read-only; two unwritable topics
// make the shard refuse every write with 503 storage_readonly. A write
// probe every -probe-interval (also the Retry-After hint) recovers topics
// without a restart.
//
// # Conformance gate
//
// Every topic synthesizes a conformance profile from the batches it has
// accepted — token rate, OOV rate, tokens-per-tweet shape, user-activity
// concentration, duplicate rate, timestamp step and in-batch time
// spread — and scores each incoming batch against it. -conform-mode
// selects what a verdict does: "off" (default) scores silently, "flag"
// annotates batch responses (and the healthz census) with verdicts, and
// "enforce" rejects quarantined batches with 422 batch_nonconforming
// before the journal append — the refused batch leaves no durable
// trace, so a corrected retry is safe. The profile is part of the
// topic's snapshot state and survives restarts, journal replay and
// replica promotion bit-identically; the mode is a per-shard runtime
// policy. GET /v1/healthz reports the mode, the enforce-mode rejection
// count and each topic's drift trend and last violation.
//
// # Cluster mode
//
// With -peers and -self set, the daemon serves one shard of a
// consistent-hash cluster: every shard builds the same ring from the
// static peer list (-vnodes virtual nodes per peer), so topic placement
// is deterministic with no coordination traffic. A topic request
// arriving at the wrong shard is answered 307 with a Location on the
// owning shard and an X-Triclust-Shard header; the client re-sends it
// there (curl -L, Go's http.Client by default). Additional endpoints:
//
//	GET  /v1/healthz        readiness: topic count, startup-quarantine count, cluster view
//	GET  /v1/cluster/info   ring membership; ?topic=t resolves t's placement
//	POST /v1/cluster/move   operator rebalance: {"topic":"t","target":"http://shard-b:8547"}
//
// A move drains the topic (in-flight batch finishes, new ones block),
// compacts its journal into a final snapshot, bumps the topic's
// ownership epoch, installs the snapshot on the target over the restore
// endpoint, and drops the local copy, leaving a persisted tombstone
// (<topic>.moved) that refuses the topic's state at stale epochs and —
// across restarts — sends its clients after it (the retired row above).
// A hand-off whose install cannot be confirmed keeps the fence and is
// resumed every -probe-interval until it has a verdict.
//
// # Replication and failover
//
// With -replication-factor N (N >= 2, requires cluster mode and a
// -data-dir), every topic also lives as a *cold replica* on its N-1 ring
// successors: after each acknowledged batch the owning shard ships the
// batch's journal frame to the followers (POST /v1/replica/{topic}/append),
// which verify it — CRC, epoch, and the recorded batch/random-stream
// fingerprints — and fsync it to <topic>.rsnap + <topic>.rjournal without
// ever opening the topic. A follower a ship misses is recorded out of
// sync; every -probe-interval the primary re-ships a full base to each
// topic with a follower that is up and unknown or out of sync, so idle
// topics and a restarted primary's topics converge without another
// batch. Each shard probes its peers' /v1/healthz
// (-probe-interval, -probe-timeout, -probe-failures). On the same tick, a
// replica whose recorded source is declared down is promoted by the first
// live member of its replica set: it replays the tail through the
// deterministic pipeline, bumps the ownership epoch, and serves the topic
// from where the dead primary stopped once its first snapshot is durable;
// a promotion that fails is retried on the next tick. A zombie primary (still running,
// merely partitioned) is fenced on its next ship by 409 epoch_mismatch
// and redirects its clients to the new owner. -auto-rebalance drives
// held topics back onto the ring as peers die and return. GET /v1/healthz
// reports the replication factor, down peers, held replicas and
// per-follower shipping lag. Every inter-shard request (probe, ship,
// hand-off, placement query) is bounded by -peer-timeout.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"triclust"
	"triclust/internal/par"
	"triclust/internal/store"
)

func main() {
	addr := flag.String("addr", ":8547", "listen address")
	procs := flag.Int("procs", runtime.GOMAXPROCS(0), "parallelism width of the compute kernels")
	dataDir := flag.String("data-dir", "", "directory for durable topic snapshots (empty: in-memory only)")
	journalEvery := flag.Int("journal-every", 64,
		"compact a topic's journal into a fresh full snapshot every N batches")
	journalMaxBytes := flag.Int64("journal-max-bytes", 8<<20,
		"also compact a topic's journal into a snapshot when it exceeds this size")
	maxBody := flag.Int64("max-body-bytes", 0,
		"reject request bodies larger than this with 413 body_too_large (0: 256 MiB default)")
	peers := flag.String("peers", "",
		"comma-separated base URLs of every cluster shard (empty: single-process mode)")
	self := flag.String("self", "",
		"this shard's base URL; must be listed in -peers")
	vnodes := flag.Int("vnodes", 0,
		"virtual nodes per shard on the consistent-hash ring (0: default)")
	peerTimeout := flag.Duration("peer-timeout", 0,
		"deadline for each inter-shard request: hand-off PUT, placement query, replica ship (0: 30s default, 10s for replica ships)")
	replFactor := flag.Int("replication-factor", 1,
		"copies of every topic across the cluster: the primary plus N-1 cold replicas on ring successors (1: off)")
	probeInterval := flag.Duration("probe-interval", time.Second,
		"round of the shard's two background loops: each peer's failure-detector probe, and the tick, whose steps run one after the other: the -auto-rebalance check, replica resync and promotion, parked hand-off resumes, the storage write probe while storage is degraded (also the Retry-After hint on refused writes)")
	probeTimeout := flag.Duration("probe-timeout", 0,
		"deadline for one failure-detector probe (0: the probe interval)")
	probeFailures := flag.Int("probe-failures", 3,
		"consecutive probe failures before a peer is declared down")
	autoRebalance := flag.Bool("auto-rebalance", false,
		"every -probe-interval, move held topics back to their ring owners as peers die and return")
	conformMode := flag.String("conform-mode", "off",
		"stream-conformance gate: off (score silently), flag (annotate batch responses with verdicts), enforce (reject quarantined batches with 422 batch_nonconforming before the journal append)")
	drain := flag.Duration("shutdown-timeout", 30*time.Second, "graceful-shutdown drain timeout")
	flag.Parse()
	par.SetProcs(*procs)

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "triclustd: "+format+"\n", args...)
	}
	conform, err := triclust.ParseConformanceMode(*conformMode)
	if err != nil {
		logf("startup: %v", err)
		os.Exit(1)
	}
	opts := serverOptions{
		journal:    store.Options{Every: *journalEvery, MaxBytes: *journalMaxBytes},
		maxBody:    *maxBody,
		conform:    conform,
		probeEvery: *probeInterval,
	}
	if *peers != "" || *self != "" {
		cc, err := newMembership(*self, *peers, *vnodes)
		if err != nil {
			logf("startup: %v", err)
			os.Exit(1)
		}
		opts.cluster = cc
		opts.peer = peerOptions{Timeout: *peerTimeout}
	}
	opts.repl = &replOptions{
		Factor:        *replFactor,
		ProbeTimeout:  *probeTimeout,
		ProbeFailures: *probeFailures,
		AutoRebalance: *autoRebalance,
	}
	handler, err := newServer(*dataDir, opts, logf)
	if err != nil {
		logf("startup: %v", err)
		os.Exit(1)
	}
	handler.start()

	srv := &http.Server{
		Addr:    *addr,
		Handler: handler,
		// Bound header/body reads so idle or slow-drip clients cannot
		// pin connections forever; batch *processing* time is not under
		// these timeouts (they cover the request read only).
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		IdleTimeout:       5 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	fmt.Printf("triclustd listening on %s (kernel procs=%d, data-dir=%q)\n",
		*addr, par.Procs(), *dataDir)
	if cc := opts.cluster; cc != nil {
		logf("cluster mode: self=%s peers=%v vnodes=%d",
			cc.Self, cc.Ring.Peers(), cc.Ring.VirtualNodes())
	}

	select {
	case err := <-errCh:
		logf("%v", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	// Graceful shutdown: stop accepting, drain in-flight batches (each
	// durable in its topic's journal before it is acked), then compact
	// every topic into a final snapshot.
	logf("signal received, draining (timeout %s)", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logf("shutdown: %v", err)
	}
	// End the background lifetime (the detector's watches and the tick)
	// before the final snapshot pass so nothing ships or promotes mid-exit.
	handler.Close()
	if err := handler.snapshotAll(); err != nil {
		logf("final snapshot: %v", err)
		os.Exit(1)
	}
	logf("shutdown complete")
}
