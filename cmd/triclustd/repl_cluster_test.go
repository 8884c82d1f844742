package main

// Fault-injection scenarios for journal-shipped replication, each pinning
// what one schedule alone shows (TestClusterSim explores the schedules): a
// zombie primary fenced by its next ship, idle followers converging, a
// restarted primary re-seeding, promotions that cascade past a dead
// candidate, fail and retry, or fail to become durable, and the move
// corner cases whose hand-off is ambiguous. The failover scenarios hold
// the promoted topic to a single-process control run, byte for byte.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"triclust/internal/cluster"
	"triclust/internal/fault"
	"triclust/internal/store"
)

// fastRepl returns replication options tuned for the harness: probes
// every 25ms, a peer is down after 3 straight failures (~75ms).
func fastRepl() *replOptions {
	return &replOptions{
		Factor:        2,
		ProbeInterval: 25 * time.Millisecond,
		ProbeTimeout:  250 * time.Millisecond,
		ProbeFailures: 3,
	}
}

// fastPeer returns inter-shard options tuned for the harness: retries
// back off from 2ms, every request rides the given transport (nil: the
// default).
func fastPeer(transport http.RoundTripper) peerOptions {
	return peerOptions{
		Timeout:   5 * time.Second,
		Backoff:   cluster.Backoff{Base: 2 * time.Millisecond, Max: 50 * time.Millisecond},
		Transport: transport,
	}
}

// awaitServedAt polls the live shards until one of them serves the topic
// locally at exactly wantEpoch, returning that shard's index. On the
// manual clock a promotion must land within ProbeFailures+2 ticks: the
// down verdict, the reconcile round of that tick or the next, and one
// retry.
func (tc *testCluster) awaitServedAt(name string, wantEpoch uint64, live []int) int {
	tc.t.Helper()
	served := -1
	if !tc.await(tc.opts.repl.ProbeFailures+2, func() bool {
		for _, i := range live {
			var info clusterInfoResponse
			code, err := doJSON(tc.client, "GET", tc.url(i)+"/v1/cluster/info?topic="+name, nil, &info)
			if err == nil && code == http.StatusOK && info.Topic != nil &&
				info.Topic.Local && info.Topic.Epoch == wantEpoch {
				served = i
				return true
			}
		}
		return false
	}) {
		tc.t.Fatalf("no live shard ever served %q at epoch %d", name, wantEpoch)
	}
	return served
}

// gateTransport fails every inter-shard request whose path starts with
// prefix until open is set; the rest pass to the default transport.
type gateTransport struct {
	prefix string
	open   atomic.Bool
}

func (g *gateTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !g.open.Load() && strings.HasPrefix(req.URL.Path, g.prefix) {
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, fmt.Errorf("gate closed: %s %s", req.Method, req.URL.Path)
	}
	return http.DefaultTransport.RoundTrip(req)
}

// ownedBy returns n topic names whose ring owner is shard i.
func (tc *testCluster) ownedBy(i, n int) []string {
	var names []string
	for k := 0; len(names) < n; k++ {
		if name := fmt.Sprintf("idle%04d", k); tc.ownerIdx(name) == i {
			names = append(names, name)
		}
	}
	return names
}

// awaitFollowersSynced reads shard i's healthz until its replication lag
// lists Factor-1 followers for every named topic, each synced and 0
// batches behind, failing after the given number of ticks (see await).
func (tc *testCluster) awaitFollowersSynced(i int, names []string, ticks int) {
	tc.t.Helper()
	want := tc.opts.repl.Factor - 1
	var hr healthResponse
	synced := 0
	if !tc.await(ticks, func() bool {
		hr = healthResponse{}
		code, err := doJSON(tc.client, "GET", tc.url(i)+"/v1/healthz", nil, &hr)
		if err != nil || code != http.StatusOK || hr.Replication == nil {
			return false
		}
		ok := map[string]int{}
		for _, l := range hr.Replication.Lag {
			if l.Synced && l.Behind == 0 {
				ok[l.Topic]++
			}
		}
		synced = 0
		for _, name := range names {
			if ok[name] == want {
				synced++
			}
		}
		return synced == len(names)
	}) {
		lag := 0
		if hr.Replication != nil {
			lag = len(hr.Replication.Lag)
		}
		tc.t.Fatalf("shard %d: %d of %d topics have every follower synced after %d ticks (healthz lists %d lag entries)",
			i, synced, len(names), ticks, lag)
	}
}

// TestResyncConvergesIdleTopics: followers that missed the base ship of
// more topics than a bounded queue would hold converge in the first
// reconcile round after the transport heals, though no batch follows and
// no peer changes state. The resync loop reads the recorded follower
// state, so an idle topic is never dropped from it.
func TestResyncConvergesIdleTopics(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster harness is not short")
	}
	gate := &gateTransport{prefix: "/v1/replica/"}
	tc := newClockedCluster(t, 2, serverOptions{
		journal: store.Options{Every: 4, MaxBytes: 8 << 20},
		repl:    fastRepl(),
		peer:    fastPeer(gate),
	})
	names := tc.ownedBy(0, 320)
	for _, name := range names {
		tc.retryJSON("POST", tc.url(0)+"/v1/topics", degradeCreateReq(name), nil, http.StatusCreated)
	}
	gate.open.Store(true)
	tc.awaitFollowersSynced(0, names, 1)

	primary := tc.shards[0].srv
	for _, name := range names {
		pb, pd := servedTopic(primary, name).eng.StreamPos()
		if rb, rd := replicaPos(t, tc.shards[1].dir, name); pb != rb || pd != rd {
			t.Fatalf("%s: primary at (%d,%d), replica at (%d,%d)", name, pb, pd, rb, rd)
		}
	}
}

// TestRestartReseedsIdleFollowers: a rebooted primary knows nothing of its
// followers, so in its first tick it re-seeds those of its idle topics —
// healthz lists every one synced without another batch. The clock stands
// still while the primary is down, so no probe fails and no promotion
// races the reboot.
func TestRestartReseedsIdleFollowers(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster harness is not short")
	}
	tc := newClockedCluster(t, 2, serverOptions{
		journal: store.Options{Every: 4, MaxBytes: 8 << 20},
		repl:    fastRepl(),
		peer:    fastPeer(nil),
	})
	names := tc.ownedBy(0, 6)
	for _, name := range names {
		tc.retryJSON("POST", tc.url(0)+"/v1/topics", degradeCreateReq(name), nil, http.StatusCreated)
		for day := 1; day <= 2; day++ {
			tc.retryJSON("POST", tc.url(0)+"/v1/topics/"+name+"/batches", degradeBatch(day), nil, http.StatusOK)
		}
	}
	tc.awaitFollowersSynced(0, names, 0)

	tc.killShard(0)
	tc.boot(0)
	tc.awaitFollowersSynced(0, names, 1)
}

// TestClusterZombieFencing pins the split-brain guarantee: a primary cut
// off from clients (but still running) keeps accepting nothing after its
// topic is promoted elsewhere — its next write's replica ship comes back
// 409 epoch_mismatch, it fences itself with a tombstone naming the new
// owner, and redirects from then on.
func TestClusterZombieFencing(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster harness is not short")
	}
	opts := serverOptions{
		journal: store.Options{Every: 4, MaxBytes: 8 << 20},
		repl:    fastRepl(),
		peer:    fastPeer(nil),
	}
	tc := newClockedCluster(t, 3, opts)

	// One topic, owned by the shard that will go zombie.
	pick := 0
	for tc.ownerIdx(harnessTopicName(pick)) != 0 {
		pick++
	}
	name := harnessTopicName(pick)
	tc.retryJSON("POST", tc.url(0)+"/v1/topics", harnessCreateReq(pick), nil, http.StatusCreated)
	for day := 1; day <= 3; day++ {
		tc.retryJSON("POST", tc.url(0)+"/v1/topics/"+name+"/batches", harnessBatch(pick, day), nil, http.StatusOK)
	}

	// Partition the primary: its listener stops answering, but its server
	// object keeps running — detector, replicator, topic state all live.
	zombie := tc.shards[0].srv
	tc.shards[0].sh.kill()

	// The peers declare it down and the replica holder promotes at epoch 1.
	promoted := tc.awaitServedAt(name, 1, []int{1, 2})

	// The zombie still believes it owns the topic at epoch 0. Drive a
	// batch into it directly (its listener is gone; ServeHTTP stands in
	// for a client that still holds a connection): processing succeeds in
	// memory, but the replica ship is refused with epoch_mismatch and the
	// zombie fences itself instead of acking forked history.
	code, ec := serveJSON(t, zombie, "POST", "/v1/topics/"+name+"/batches", harnessBatch(pick, 4))
	if code != http.StatusConflict || ec != codeEpochMismatch {
		t.Fatalf("zombie write answered %d %q, want 409 %q", code, ec, codeEpochMismatch)
	}

	// Fenced: the tombstone is on the zombie's disk, naming the new owner
	// at the epoch that demoted it, and reads redirect.
	var ts cluster.Tombstone
	data, err := os.ReadFile(filepath.Join(tc.shards[0].dir, name+".moved"))
	ok := err == nil && json.Unmarshal(data, &ts) == nil
	if !ok || ts.Target != tc.url(promoted) || ts.Epoch != 0 {
		t.Fatalf("zombie tombstone = %+v (present=%v), want epoch 0 → %s", ts, ok, tc.url(promoted))
	}
	req := httptest.NewRequest("GET", "/v1/topics/"+name, nil)
	rec := httptest.NewRecorder()
	zombie.ServeHTTP(rec, req)
	if rec.Code != http.StatusTemporaryRedirect || rec.Header().Get(shardHeader) != tc.url(promoted) {
		t.Fatalf("fenced zombie answered %d shard=%q, want 307 → %s", rec.Code, rec.Header().Get(shardHeader), tc.url(promoted))
	}

	// Meanwhile the promoted copy serves the full acked history and the
	// stream continues — the zombie's rejected day-4 batch was never
	// acked, so the client's retry lands day 4 on the new primary.
	var sum topicSummary
	tc.retryJSON("GET", tc.url(promoted)+"/v1/topics/"+name, nil, &sum, http.StatusOK)
	if sum.Batches != 3 {
		t.Fatalf("promoted topic has %d batches, want 3", sum.Batches)
	}
	tc.retryJSON("POST", tc.url(promoted)+"/v1/topics/"+name+"/batches", harnessBatch(pick, 4), nil, http.StatusOK)

	zombie.Close()
}

// serveJSON drives one JSON request straight into a server's ServeHTTP
// (no listener), returning the status and error code.
func serveJSON(t *testing.T, s *server, method, path string, body any) (int, string) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	var eb errorBody
	_ = json.NewDecoder(rec.Body).Decode(&eb)
	return rec.Code, eb.Error.Code
}

// holdTransport holds every inter-shard request whose path starts with
// prefix until release is closed or the request's context ends, counting
// the requests it holds; the rest pass to the default transport.
type holdTransport struct {
	prefix  string
	release chan struct{}
	held    atomic.Int32
}

func (h *holdTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if strings.HasPrefix(req.URL.Path, h.prefix) {
		h.held.Add(1)
		select {
		case <-h.release:
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	return http.DefaultTransport.RoundTrip(req)
}

// useFS reboots shard i with its durable writes going through fs.
func (tc *testCluster) useFS(i int, fs fault.FS) {
	tc.killShard(i)
	tc.shards[i].fs = fs
	tc.boot(i)
}

// failoverTopic creates one topic on shard p with batches for days 1–3 and
// waits until every follower holds all three.
func (tc *testCluster) failoverTopic(p int, name string) {
	tc.t.Helper()
	tc.retryJSON("POST", tc.url(p)+"/v1/topics", degradeCreateReq(name), nil, http.StatusCreated)
	for day := 1; day <= 3; day++ {
		tc.retryJSON("POST", tc.url(p)+"/v1/topics/"+name+"/batches", degradeBatch(day), nil, http.StatusOK)
	}
	tc.awaitFollowersSynced(p, []string{name}, 40)
}

// assertPromoted holds the topic shard i serves to a single-process
// control fed days 1–3, at epoch 1: one promotion past the dead primary,
// every acked batch, byte for byte.
func (tc *testCluster) assertPromoted(i int, name string) {
	tc.t.Helper()
	got := fetchSnapshot(tc.t, tc.client, tc.url(i)+"/v1/topics/"+name+"/snapshot")
	ctl := controlTopic(tc.t, degradeCreateReq(name))
	for day := 1; day <= 3; day++ {
		if _, err := ctl.Process(day, specTweets(degradeBatch(day))); err != nil {
			tc.t.Fatalf("control day %d: %v", day, err)
		}
	}
	ctl.SetEpoch(1)
	var want bytes.Buffer
	if err := ctl.Snapshot(&want); err != nil {
		tc.t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		tc.t.Fatalf("promoted %s on shard %d differs from the control at epoch 1", name, i)
	}
}

// TestFailoverCascade: at RF 3 the primary P dies while its first
// promotion candidate A is alive, so the second candidate B defers to A;
// A dies before it promotes (its split-brain guard's query is held). B
// must then promote, though the replica's recorded source is P and no
// event names P again: the check runs on every tick from recorded state.
func TestFailoverCascade(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster harness is not short")
	}
	hold := &holdTransport{prefix: "/v1/cluster/info", release: make(chan struct{})}
	ro := fastRepl()
	ro.Factor = 3
	tc := newTestCluster(t, 3, serverOptions{
		journal: store.Options{Every: 4, MaxBytes: 8 << 20},
		repl:    ro,
		peer:    fastPeer(hold),
	}, true)
	name := "cascade"
	set := tc.ring.ReplicaSet(name, 3)
	p, a, b := tc.peerIdx(set[0]), tc.peerIdx(set[1]), tc.peerIdx(set[2])
	tc.failoverTopic(p, name)

	tc.killShard(p)
	det := tc.shards[b].srv.repl.det
	if !eventually(func() bool { return hold.held.Load() > 0 && det.Down(tc.url(p)) }) {
		t.Fatalf("A never asked its split-brain guard (held %d) or B never saw P down (%v)", hold.held.Load(), det.Down(tc.url(p)))
	}
	if servedTopic(tc.shards[b].srv, name) != nil {
		t.Fatal("B promoted while A was the first live candidate")
	}

	tc.killShard(a)
	close(hold.release)
	tc.awaitServedAt(name, 1, []int{b})
	tc.assertPromoted(b, name)
}

// TestFailoverRetriesFailedPromotion: the promoting shard cannot read the
// replica's base once; the replica is kept and the next tick promotes it.
func TestFailoverRetriesFailedPromotion(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster harness is not short")
	}
	tc := newClockedCluster(t, 2, serverOptions{
		journal: store.Options{Every: 4, MaxBytes: 8 << 20},
		repl:    fastRepl(),
		peer:    fastPeer(nil),
	})
	script := fault.NewScript()
	tc.useFS(1, script)
	name := tc.ownedBy(0, 1)[0]
	tc.failoverTopic(0, name)

	reads := script.Hits("repl.snap.read")
	script.AddRule(fault.Rule{Site: "repl.snap.read", Hit: reads + 1, Err: errors.New("injected: replica base unreadable")})
	tc.killShard(0)
	tc.awaitServedAt(name, 1, []int{1})
	if got := script.Hits("repl.snap.read"); got != reads+2 {
		t.Fatalf("replica base read %d times, want %d (one failed promotion, one retry)", got-reads, 2)
	}
	tc.assertPromoted(1, name)
}

// TestFailoverKeepsReplicaUntilDurable: the promoted topic's first
// snapshot cannot be written, so the topic is retired and the replica
// kept. A restart with a healthy disk, the old primary still dead,
// promotes it with every batch.
func TestFailoverKeepsReplicaUntilDurable(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster harness is not short")
	}
	tc := newClockedCluster(t, 2, serverOptions{
		journal: store.Options{Every: 4, MaxBytes: 8 << 20},
		repl:    fastRepl(),
		peer:    fastPeer(nil),
	})
	script := fault.NewScript()
	tc.useFS(1, script)
	name := tc.ownedBy(0, 1)[0]
	tc.failoverTopic(0, name)

	writes := script.Hits("persist.snap.write")
	script.AddRule(fault.Rule{Site: "persist.snap.write", Err: errors.New("injected: snapshot device gone")})
	tc.killShard(0)
	if !tc.await(tc.opts.repl.ProbeFailures+2, func() bool { return script.Hits("persist.snap.write") >= writes+2 }) {
		t.Fatalf("promotion tried %d snapshot writes, want 2", script.Hits("persist.snap.write")-writes)
	}
	// Closed, the shard has no promotion in flight: the topic is retired
	// and the replica kept.
	tc.killShard(1)
	if servedTopic(tc.shards[1].srv, name) != nil {
		t.Fatal("a promoted topic whose first snapshot failed is served")
	}
	if _, err := os.Stat(filepath.Join(tc.shards[1].dir, name+".rsnap")); err != nil {
		t.Fatalf("replica dropped though the promotion was not durable: %v", err)
	}
	script.ClearRules()
	tc.boot(1)
	tc.awaitServedAt(name, 1, []int{1})
	tc.assertPromoted(1, name)
}

// blindTransport loses the response to the first hand-off PUT (see
// lostAckTransport) and, while blind is set, fails every placement query:
// a move whose install landed and cannot be confirmed.
type blindTransport struct {
	lostAckTransport
	blind atomic.Bool
}

func (b *blindTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if b.blind.Load() && req.URL.Path == "/v1/cluster/info" {
		return nil, fmt.Errorf("injected: placement query to %s failed", req.URL.Host)
	}
	return b.lostAckTransport.RoundTrip(req)
}

// TestPromotedTopicReseedsAfterAmbiguousMove: a name served again on a
// shard starts with a shipping record that knows no follower. Ring order
// [S, U, T], RF 2: S's move to T is ambiguous (the install lands, its ack
// and the placement query are lost), a retry completes it, T streams on
// and dies, and S promotes the topic. Within one tick S re-seeds U, which
// S's record of the topic it moved away once listed as synced.
func TestPromotedTopicReseedsAfterAmbiguousMove(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster harness is not short")
	}
	transport := &blindTransport{}
	tc := newClockedCluster(t, 3, serverOptions{
		journal: store.Options{Every: 4, MaxBytes: 8 << 20},
		repl:    fastRepl(),
		peer:    fastPeer(transport),
	})
	name := "ambiguous"
	set := tc.ring.ReplicaSet(name, 3)
	s, u, tt := tc.peerIdx(set[0]), tc.peerIdx(set[1]), tc.peerIdx(set[2])
	tc.retryJSON("POST", tc.url(s)+"/v1/topics", degradeCreateReq(name), nil, http.StatusCreated)
	for day := 1; day <= 3; day++ {
		tc.retryJSON("POST", tc.url(s)+"/v1/topics/"+name+"/batches", degradeBatch(day), nil, http.StatusOK)
	}
	tc.awaitFollowersSynced(s, []string{name}, 0)

	transport.blind.Store(true)
	move := moveRequest{Topic: name, Target: tc.url(tt)}
	if code, ec := errCode2(t, tc.noRedirect, "POST", tc.url(s)+"/v1/cluster/move", move); code != http.StatusBadGateway || ec != codeMoveFailed {
		t.Fatalf("ambiguous move answered %d %q, want 502 %q", code, ec, codeMoveFailed)
	}
	transport.blind.Store(false)
	var mv moveResponse
	tc.retryJSON("POST", tc.url(s)+"/v1/cluster/move", move, &mv, http.StatusOK)
	if !mv.Resumed || mv.Epoch != 1 {
		t.Fatalf("move retry %+v, want the hand-off resumed at epoch 1", mv)
	}
	for day := 4; day <= 5; day++ {
		tc.retryJSON("POST", tc.url(tt)+"/v1/topics/"+name+"/batches", degradeBatch(day), nil, http.StatusOK)
	}

	tc.killShard(tt)
	if got := tc.awaitServedAt(name, 2, []int{s, u}); got != s {
		t.Fatalf("shard %d promoted %q, want S (%d), T's first live candidate", got, name, s)
	}
	tc.awaitFollowersSynced(s, []string{name}, 1)
	pb, pd := servedTopic(tc.shards[s].srv, name).eng.StreamPos()
	if rb, rd := replicaPos(t, tc.shards[u].dir, name); pb != 5 || rb != pb || rd != pd {
		t.Fatalf("S at (%d,%d), want 5 batches; U's replica at (%d,%d)", pb, pd, rb, rd)
	}
}

// TestClusterMoveResumeElsewhereAfterLandedInstall: a move S→T whose install
// landed but could not be confirmed — its ack and the placement query were
// lost — is retried naming U. The resume must not install a second copy: S
// asks T, finds the hand-off landed there, drops its leftover files and
// redirects the move to T. Exactly one shard serves the topic, with its
// full history, and every other shard redirects its batches.
func TestClusterMoveResumeElsewhereAfterLandedInstall(t *testing.T) {
	transport := &blindTransport{}
	tc := newTestCluster(t, 3, serverOptions{
		journal: store.Options{Every: 4, MaxBytes: 8 << 20},
		peer:    fastPeer(transport),
	}, true)
	name := harnessTopicName(5)
	s := tc.ownerIdx(name)
	tt, u := (s+1)%3, (s+2)%3
	tc.retryJSON("POST", tc.url(s)+"/v1/topics", harnessCreateReq(5), nil, http.StatusCreated)
	for day := 1; day <= 3; day++ {
		tc.retryJSON("POST", tc.url(s)+"/v1/topics/"+name+"/batches", harnessBatch(5, day), nil, http.StatusOK)
	}

	transport.blind.Store(true)
	if code, ec := errCode2(t, tc.noRedirect, "POST", tc.url(s)+"/v1/cluster/move", moveRequest{Topic: name, Target: tc.url(tt)}); code != http.StatusBadGateway || ec != codeMoveFailed {
		t.Fatalf("ambiguous move answered %d %q, want 502 %q", code, ec, codeMoveFailed)
	}
	transport.blind.Store(false)
	moved, err := follow(tc.noRedirect, "POST", tc.url(s)+"/v1/cluster/move", moveRequest{Topic: name, Target: tc.url(u)}, -1)
	if err != nil {
		t.Fatal(err)
	}

	var serving []int
	for i := range tc.shards {
		var info clusterInfoResponse
		tc.retryJSON("GET", tc.url(i)+"/v1/cluster/info?topic="+name, nil, &info, http.StatusOK)
		if info.Topic != nil && info.Topic.Local {
			serving = append(serving, i)
		}
	}
	if len(serving) != 1 || serving[0] != tt {
		t.Fatalf("shards %v serve %q, want exactly T (%d)", serving, name, tt)
	}
	if moved.code != http.StatusTemporaryRedirect || moved.shard != tc.url(tt) {
		t.Fatalf("move retry naming U answered %v, want 307 to T %s", moved, tc.url(tt))
	}
	var sum topicSummary
	tc.retryJSON("GET", tc.url(tt)+"/v1/topics/"+name, nil, &sum, http.StatusOK)
	if sum.Batches != 3 {
		t.Fatalf("T serves %d batches, want 3", sum.Batches)
	}
	if dirStore(t, tc.shards[s].dir).HasSnapshot(name) {
		t.Fatal("S still holds the snapshot of a topic T serves")
	}
	for _, i := range []int{s, u} {
		if code, _ := errCode2(t, tc.noRedirect, "POST", tc.url(i)+"/v1/topics/"+name+"/batches", harnessBatch(5, 4)); code != http.StatusTemporaryRedirect {
			t.Fatalf("batch sent to shard %d answered %d, want 307", i, code)
		}
	}
}

// TestStartupFencesRestartedPrimary pins why a restarted shard asks every
// candidate about its topics: ring order [P, A, B], RF 2. P dies, A
// promotes and moves the topic to B, then A dies. P reboots holding the
// topic at epoch 0, and no ship of its own can fence it: its one follower,
// A, is dead. The clock stands still, so B's resync cannot reach P either;
// the startup check alone must fence P with a tombstone naming B.
func TestStartupFencesRestartedPrimary(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster harness is not short")
	}
	tc := newClockedCluster(t, 3, serverOptions{
		journal: store.Options{Every: 4, MaxBytes: 8 << 20},
		repl:    fastRepl(),
		peer:    fastPeer(nil),
	})
	name := "restarted"
	set := tc.ring.ReplicaSet(name, 3)
	p, a, b := tc.peerIdx(set[0]), tc.peerIdx(set[1]), tc.peerIdx(set[2])
	tc.failoverTopic(p, name)

	tc.killShard(p)
	if got := tc.awaitServedAt(name, 1, []int{a, b}); got != a {
		t.Fatalf("shard %d promoted %q, want A (%d)", got, name, a)
	}
	var mv moveResponse
	tc.retryJSON("POST", tc.url(a)+"/v1/cluster/move", moveRequest{Topic: name, Target: tc.url(b)}, &mv, http.StatusOK)
	if mv.Epoch != 2 {
		t.Fatalf("move to B %+v, want epoch 2", mv)
	}
	tc.killShard(a)

	tc.boot(p)
	var ts cluster.Tombstone
	var ans simAnswer
	if !eventually(func() bool {
		data, err := os.ReadFile(filepath.Join(tc.shards[p].dir, name+".moved"))
		if err != nil || json.Unmarshal(data, &ts) != nil || ts.Target != tc.url(b) {
			return false
		}
		ans, err = follow(tc.noRedirect, "GET", tc.url(p)+"/v1/topics/"+name, nil, -1)
		return err == nil && ans.code == http.StatusTemporaryRedirect && ans.shard == tc.url(b)
	}) {
		t.Fatalf("restarted P: tombstone %+v, GET answered %v shard=%q; want fenced and 307 → %s", ts, ans, ans.shard, tc.url(b))
	}
}
