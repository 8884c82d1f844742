package main

// Fault-injection scenarios for journal-shipped replication, each pinning
// what one schedule alone shows (TestClusterSim explores the schedules): a
// zombie primary fenced by its next ship, idle followers converging, a
// restarted primary fenced at start-up, a promotion held back by a live
// holder, and the move corner cases whose hand-off is ambiguous.

import (
	"bytes"
	"encoding/json"
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
// prefix until open is set; the rest pass to the harness's network.
type gateTransport struct {
	onNet
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
	return g.net.RoundTrip(req)
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

// blindTransport reports the response to the first hand-off PUT as lost
// (the target installed the topic, the source sees a transport error) and,
// while blind is set, fails every placement query: a move whose install
// landed and cannot be confirmed.
type blindTransport struct {
	onNet
	lost, blind atomic.Bool
}

func (b *blindTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if b.blind.Load() && req.URL.Path == "/v1/cluster/info" {
		return nil, fmt.Errorf("injected: placement query to %s failed", req.URL.Host)
	}
	resp, err := b.net.RoundTrip(req)
	if err == nil && req.Header.Get(handoffHeader) != "" && b.lost.CompareAndSwap(false, true) {
		resp.Body.Close()
		return nil, fmt.Errorf("injected: the response to %s %s was lost", req.Method, req.URL.Path)
	}
	return resp, err
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

// TestPromotionDefersToAMovedTopic pins the promotion's split-brain guard:
// ring order [P, A, B], RF 2. P moves the topic to B, which ships to its
// own follower, P, and leaves A holding a replica of P's epoch 0. P dies.
// A is that replica's first live candidate, but B serves the topic: A must
// keep the replica, not promote it to a second writer at epoch 1.
func TestPromotionDefersToAMovedTopic(t *testing.T) {
	tc := newClockedCluster(t, 3, serverOptions{journal: store.Options{Every: 4, MaxBytes: 8 << 20}, repl: fastRepl()})
	name := "moved"
	set := tc.ring.ReplicaSet(name, 3)
	p, a, b := tc.peerIdx(set[0]), tc.peerIdx(set[1]), tc.peerIdx(set[2])
	tc.failoverTopic(p, name)
	tc.retryJSON("POST", tc.url(p)+"/v1/cluster/move", moveRequest{Topic: name, Target: tc.url(b)}, nil, http.StatusOK)
	tc.killShard(p)
	for range tc.opts.repl.ProbeFailures + 2 {
		tc.tick()
	}
	if meta, held := tc.shards[a].srv.store.Replicas()[name]; !held || meta.Source != tc.url(p) || !tc.shards[a].srv.repl.det.Down(tc.url(p)) {
		t.Fatalf("A holds %+v (%v) and sees P down: %v; want P's replica, and P down", meta, held, tc.shards[a].srv.repl.det.Down(tc.url(p)))
	}
	if servedTopic(tc.shards[a].srv, name) != nil || servedTopic(tc.shards[b].srv, name) == nil {
		t.Fatal("A promoted its replica of a topic B serves")
	}
}
