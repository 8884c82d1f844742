package main

import (
	"bytes"
	"context"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"triclust/internal/cluster"
	"triclust/internal/codec"
	"triclust/internal/fault"
	"triclust/internal/journal"
	"triclust/internal/store"
)

// selfAndPeer is the membership of shard self.test, whose one peer,
// peer.test, exists on the ring only: tests that drive the replica wire by
// hand through ServeHTTP never reach it.
func selfAndPeer(t *testing.T) *cluster.Membership {
	t.Helper()
	cc, err := newMembership("http://self.test:8547", "http://self.test:8547,http://peer.test:8547", 32)
	if err != nil {
		t.Fatalf("newMembership: %v", err)
	}
	return cc
}

// tailFrame encodes one journal record frame carrying the post-batch
// fingerprint (batches, draws). The tweet payload is irrelevant to the
// follower's verification — only the CRC framing and the fingerprint
// chain are.
func tailFrame(t *testing.T, time, batches int, draws uint64) []byte {
	t.Helper()
	frame, err := journal.EncodeFrame(&journal.Record{Time: time, Batches: batches, RandDraws: draws})
	if err != nil {
		t.Fatalf("EncodeFrame: %v", err)
	}
	return frame
}

// TestReplicaEndpointsRequireReplication: a daemon running without
// -replication-factor refuses the replica wire with a stable code
// instead of quietly accepting state it would never serve.
func TestReplicaEndpointsRequireReplication(t *testing.T) {
	hs := front(t, serve(t, t.TempDir(), serverOptions{}, false))
	client := hs.Client()

	body := codec.AppendReplAppend(nil, &codec.ReplAppend{Source: "http://x", SnapCRC: codec.Checksum(nil)})
	if r := call(t, client, "POST", hs.URL+"/v1/replica/some-topic/append", body, nil, "Content-Type", mediaTypeSnapshot); r.code != http.StatusConflict || r.ec != codeReplicationOff {
		t.Fatalf("append without replication: %d %q, want 409 %q", r.code, r.ec, codeReplicationOff)
	}
	if r := call(t, client, "DELETE", hs.URL+"/v1/replica/some-topic?epoch=0", nil, nil); r.code != http.StatusConflict || r.ec != codeReplicationOff {
		t.Fatalf("drop without replication: %d %q, want 409 %q", r.code, r.ec, codeReplicationOff)
	}
}

// TestReplicaAppendRejectsBadRequests: hostile or malformed wire input —
// garbage bytes, invalid topic names — is rejected before anything
// touches disk.
func TestReplicaAppendRejectsBadRequests(t *testing.T) {
	s := serve(t, t.TempDir(), serverOptions{journal: store.Options{Every: 4}, cluster: selfAndPeer(t), repl: &replOptions{Factor: 2}}, true)
	if r := call(t, s, "POST", "/v1/replica/tp/append", []byte("definitely not a TRICREPL frame"), nil); r.code != http.StatusBadRequest || r.ec != codeInvalidRequest {
		t.Fatalf("garbage body: %d %q, want 400 %q", r.code, r.ec, codeInvalidRequest)
	}
	if r := call(t, s, "POST", "/v1/replica/no%2Fslashes/append", []byte(""), nil); r.code != http.StatusBadRequest || r.ec != codeInvalidName {
		t.Fatalf("bad topic name: %d %q, want 400 %q", r.code, r.ec, codeInvalidName)
	}
}

// TestReplicaFrameSequence drives the follower side of the replication
// protocol through a full life: refuse a tail with no base, install a
// base + tail, extend it incrementally, ack duplicates idempotently,
// refuse gaps and wrong bases, and fence stale epochs — verifying the
// on-disk replica (snapshot, journal, meta) after each accepted frame.
func TestReplicaFrameSequence(t *testing.T) {
	dir := t.TempDir()
	s := serve(t, dir, serverOptions{journal: store.Options{Every: 4}, cluster: selfAndPeer(t), repl: &replOptions{Factor: 2}}, true)
	const name = "protocol-topic"
	src := "http://peer.test:8547"
	snap := []byte("opaque base snapshot bytes — the follower stores, never decodes")
	snapCRC := codec.Checksum(snap)

	// 1. A tail with no base: nothing to extend.
	r := call(t, s, "POST", "/v1/replica/"+name+"/append", codec.AppendReplAppend(nil, &codec.ReplAppend{
		Source: src, Epoch: 0, SnapCRC: snapCRC,
		Batches: 1, RandDraws: 10, Tail: tailFrame(t, 1, 1, 10),
	}), nil)
	if r.code != http.StatusConflict || r.ec != codeReplicaOutOfSync {
		t.Fatalf("tail without base: %d %q, want 409 %q", r.code, r.ec, codeReplicaOutOfSync)
	}
	// A refused frame leaves no replica behind: healthz counts none, and no
	// promotion check is offered one.
	if n := s.repl.health().Replicas; n != 0 {
		t.Fatalf("%d replicas held after a refused tail, want 0", n)
	}
	// 1b. Neither does a refused first base for another fresh name: one
	// whose tail does not extend it.
	r = call(t, s, "POST", "/v1/replica/other-topic/append", codec.AppendReplAppend(nil, &codec.ReplAppend{
		Source: src, Epoch: 0, SnapCRC: snapCRC,
		BaseBatches: 1, BaseRandDraws: 10, Batches: 3, RandDraws: 30,
		Snapshot: snap, Tail: tailFrame(t, 3, 3, 30),
	}), nil)
	if r.code != http.StatusConflict || r.ec != codeReplicaOutOfSync {
		t.Fatalf("base with a gapped tail: %d %q, want 409 %q", r.code, r.ec, codeReplicaOutOfSync)
	}
	if n := s.repl.health().Replicas; n != 0 {
		t.Fatalf("%d replicas held after two refused first frames, want 0", n)
	}

	// 2. Full install: base at (1 batch, 10 draws) plus a two-record tail
	// reaching (3, 30).
	tail := append(tailFrame(t, 2, 2, 20), tailFrame(t, 3, 3, 30)...)
	var ack replAck
	r = call(t, s, "POST", "/v1/replica/"+name+"/append", codec.AppendReplAppend(nil, &codec.ReplAppend{
		Source: src, Epoch: 0, SnapCRC: snapCRC,
		BaseBatches: 1, BaseRandDraws: 10,
		Batches: 3, RandDraws: 30,
		Snapshot: snap, Tail: tail,
	}), &ack)
	if r.code != http.StatusOK || ack.Batches != 3 || ack.RandDraws != 30 {
		t.Fatalf("full install: %d ack=%+v", r.code, ack)
	}
	onDisk, err := os.ReadFile(filepath.Join(dir, name+".rsnap"))
	if err != nil || !bytes.Equal(onDisk, snap) {
		t.Fatalf("replica snapshot on disk: err=%v match=%v", err, bytes.Equal(onDisk, snap))
	}

	// 3. Incremental append to (4, 40).
	r = call(t, s, "POST", "/v1/replica/"+name+"/append", codec.AppendReplAppend(nil, &codec.ReplAppend{
		Source: src, Epoch: 0, SnapCRC: snapCRC,
		Batches: 4, RandDraws: 40, Tail: tailFrame(t, 4, 4, 40),
	}), &ack)
	if r.code != http.StatusOK || ack.Batches != 4 || ack.RandDraws != 40 {
		t.Fatalf("incremental append: %d ack=%+v", r.code, ack)
	}

	// 4. Exact duplicate (a retry whose ack was lost): idempotent 200 at
	// the unchanged position.
	r = call(t, s, "POST", "/v1/replica/"+name+"/append", codec.AppendReplAppend(nil, &codec.ReplAppend{
		Source: src, Epoch: 0, SnapCRC: snapCRC,
		Batches: 4, RandDraws: 40, Tail: tailFrame(t, 4, 4, 40),
	}), &ack)
	if r.code != http.StatusOK || ack.Batches != 4 || ack.RandDraws != 40 {
		t.Fatalf("duplicate append: %d ack=%+v", r.code, ack)
	}

	// 4b. A same-position frame with a different draw fingerprint is not a
	// duplicate — it is a same-epoch primary whose history diverged, and
	// acking it would bless the fork.
	r = call(t, s, "POST", "/v1/replica/"+name+"/append", codec.AppendReplAppend(nil, &codec.ReplAppend{
		Source: src, Epoch: 0, SnapCRC: snapCRC,
		Batches: 4, RandDraws: 41, Tail: tailFrame(t, 4, 4, 41),
	}), nil)
	if r.code != http.StatusConflict || r.ec != codeReplicaOutOfSync {
		t.Fatalf("diverged duplicate: %d %q, want 409 %q", r.code, r.ec, codeReplicaOutOfSync)
	}

	// 5. A gap (batch 6 does not follow 4): the follower must demand a
	// resync, not fake continuity.
	r = call(t, s, "POST", "/v1/replica/"+name+"/append", codec.AppendReplAppend(nil, &codec.ReplAppend{
		Source: src, Epoch: 0, SnapCRC: snapCRC,
		Batches: 6, RandDraws: 60, Tail: tailFrame(t, 6, 6, 60),
	}), nil)
	if r.code != http.StatusConflict || r.ec != codeReplicaOutOfSync {
		t.Fatalf("gapped tail: %d %q, want 409 %q", r.code, r.ec, codeReplicaOutOfSync)
	}

	// 6. A frame extending a different base snapshot.
	r = call(t, s, "POST", "/v1/replica/"+name+"/append", codec.AppendReplAppend(nil, &codec.ReplAppend{
		Source: src, Epoch: 0, SnapCRC: snapCRC + 1,
		Batches: 5, RandDraws: 50, Tail: tailFrame(t, 5, 5, 50),
	}), nil)
	if r.code != http.StatusConflict || r.ec != codeReplicaOutOfSync {
		t.Fatalf("wrong base CRC: %d %q, want 409 %q", r.code, r.ec, codeReplicaOutOfSync)
	}

	// 7. The replica journal holds exactly the accepted records.
	j, err := journal.Load(fault.OS, filepath.Join(dir, name+".rjournal"))
	if err != nil {
		t.Fatalf("load replica journal: %v", err)
	}
	if j.Torn || len(j.Records) != 3 {
		t.Fatalf("replica journal: torn=%v records=%d, want clean 3", j.Torn, len(j.Records))
	}
	last := j.Records[len(j.Records)-1]
	if last.Batches != 4 || last.RandDraws != 40 {
		t.Fatalf("replica journal tail at (%d, %d), want (4, 40)", last.Batches, last.RandDraws)
	}

	// 8. A re-install at a higher epoch (promotion elsewhere) wins; stale
	// frames at the old epoch are then fenced with the epoch header the
	// zombie needs to write its tombstone.
	r = call(t, s, "POST", "/v1/replica/"+name+"/append", codec.AppendReplAppend(nil, &codec.ReplAppend{
		Source: src, Epoch: 2, SnapCRC: snapCRC,
		BaseBatches: 5, BaseRandDraws: 50,
		Batches: 5, RandDraws: 50, Snapshot: snap,
	}), &ack)
	if r.code != http.StatusOK || ack.Batches != 5 {
		t.Fatalf("higher-epoch install: %d ack=%+v", r.code, ack)
	}
	r = call(t, s, "POST", "/v1/replica/"+name+"/append", codec.AppendReplAppend(nil, &codec.ReplAppend{
		Source: src, Epoch: 0, SnapCRC: snapCRC,
		Batches: 6, RandDraws: 60, Tail: tailFrame(t, 6, 6, 60),
	}), nil)
	if r.code != http.StatusConflict || r.ec != codeEpochMismatch {
		t.Fatalf("stale-epoch frame: %d %q, want 409 %q", r.code, r.ec, codeEpochMismatch)
	}
	if got := r.hdr.Get(epochHeader); got != "2" {
		t.Fatalf("stale-epoch fence header %s=%q, want 2", epochHeader, got)
	}
}

// lifetimeLoops are the daemon's background loops: the detector's probe
// loop, the reconcile and rebalance loops, the storage prober and the
// resume loop.
var lifetimeLoops = []string{
	"(*Detector).Watch(", "(*replicator).reconcileLoop(",
	"(*replicator).rebalanceLoop(", "(*storageMonitor).probeLoop(",
	"(*server).resumeLoop(",
}

// stacks returns the stack of every live goroutine.
func stacks() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Split(string(buf[:n]), "\n\n")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// loopCounts counts the live goroutines that are running each of
// lifetimeLoops.
func loopCounts() map[string]int {
	counts := map[string]int{}
	for _, g := range stacks() {
		for _, loop := range lifetimeLoops {
			if strings.Contains(g, loop) {
				counts[loop]++
			}
		}
	}
	return counts
}

// lockWaiters counts the goroutines waiting for a mutex inside one of fns.
func lockWaiters(fns ...string) int {
	n := 0
	for _, g := range stacks() {
		if strings.Contains(g, "sync.(*Mutex).Lock") && slices.ContainsFunc(fns, func(fn string) bool { return strings.Contains(g, fn) }) {
			n++
		}
	}
	return n
}

// TestCloseEndsOneLifetime: a replicated shard with a degraded topic runs
// every background loop, each parked on a manual clock; one advance of the
// one probe interval runs one round of each; when Close returns they have
// all exited, spawn starts nothing any more, and a second Close is a no-op.
func TestCloseEndsOneLifetime(t *testing.T) {
	const self = "http://self.test:8547"
	cc := selfAndPeer(t)
	ro := fastRepl()
	ro.AutoRebalance = true
	clock := fault.NewClock()
	// waits counts each loop's waits on the clock, by lifetimeLoops entry.
	var waitsMu sync.Mutex
	waits := map[string]int{}
	sleep := func(ctx context.Context, d time.Duration) bool {
		pc, _, _, _ := runtime.Caller(1)
		name := runtime.FuncForPC(pc).Name() + "("
		waitsMu.Lock()
		for _, loop := range lifetimeLoops {
			if strings.Contains(name, loop) {
				waits[loop]++
			}
		}
		waitsMu.Unlock()
		return clock.Sleep(ctx, d)
	}
	script := fault.NewScript()
	s := serve(t, t.TempDir(), serverOptions{
		journal: store.Options{Every: 100},
		cluster: cc,
		repl:    ro,
		// The peer exists on the ring only: every request to it fails here.
		peer:  peerOptions{Backoff: noBackoff, Transport: &gateTransport{prefix: "/"}},
		fs:    script,
		sleep: sleep,
	}, true)
	before := loopCounts()
	s.start()

	name := ""
	for i := 0; name == ""; i++ {
		if n := "life" + strconv.Itoa(i); cc.Ring.Owner(n) == self {
			name = n
		}
	}
	if r := call(t, s, "POST", "/v1/topics", degradeCreateReq(name), nil); r.code != http.StatusCreated {
		t.Fatalf("create: %d %s", r.code, r.ec)
	}
	// A full disk degrades the topic, which starts the storage prober; the
	// disk stays full and the clock never moves, so each loop stays parked.
	script.SetBudget(0)
	if r := call(t, s, "POST", "/v1/topics/"+name+"/batches", degradeBatch(1), nil); r.code != http.StatusServiceUnavailable {
		t.Fatalf("batch on a full disk: %d %s, want 503", r.code, r.ec)
	}
	if !clock.WaitSleepers(len(lifetimeLoops), eventuallyWithin) {
		t.Fatalf("not every loop parked on the clock: %v (before start: %v)", loopCounts(), before)
	}
	// extra reports whether ok holds for each loop's goroutine count less
	// its count before start.
	extra := func(ok func(extra int) bool) bool {
		now := loopCounts()
		return !slices.ContainsFunc(lifetimeLoops, func(loop string) bool { return !ok(now[loop] - before[loop]) })
	}
	if !extra(func(n int) bool { return n == 1 }) {
		t.Fatalf("loops running: %v (before start: %v)", loopCounts(), before)
	}
	// One advance of the probe interval wakes every loop once, the storage
	// prober's failing probe included, and each parks again.
	clock.Advance(s.probeEvery)
	if !clock.WaitSleepers(len(lifetimeLoops), eventuallyWithin) {
		t.Fatalf("not every loop parked again after one round: %v", loopCounts())
	}
	waitsMu.Lock()
	for _, loop := range lifetimeLoops {
		if waits[loop] != 2 {
			t.Errorf("%s waited %d times over one round, want 2", loop, waits[loop])
		}
	}
	waitsMu.Unlock()
	if n := s.storage.probes.Load(); n != 1 {
		t.Errorf("%d storage probes over one round, want 1", n)
	}
	// A goroutine that outlives the context by a moment: Close must wait
	// for it like for the loops.
	exited := make(chan struct{})
	s.spawn(func() {
		<-s.ctx.Done()
		time.Sleep(50 * time.Millisecond)
		close(exited)
	})

	closeWithin := func() {
		t.Helper()
		done := make(chan struct{})
		go func() {
			s.Close()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("Close did not return")
		}
	}
	closeWithin()
	select {
	case <-exited:
	default:
		t.Fatal("Close returned before a spawned goroutine exited")
	}
	// A spawned loop returns before its goroutine releases the WaitGroup,
	// so it is gone the moment Close returns.
	if !extra(func(n int) bool { return n == 0 }) {
		t.Fatalf("loops outlived Close: %v (before start: %v)", loopCounts(), before)
	}

	ran := false
	s.spawn(func() { ran = true })
	s.wg.Wait()
	if ran {
		t.Fatal("spawn started a goroutine after Close")
	}
	closeWithin()
}
