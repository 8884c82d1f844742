package main

// Fault-injection tests for journal-shipped replication: a shard killed
// mid-stream and never restarted (the failover tentpole), a flaky
// transport randomly dropping and delaying replica ships, a zombie
// primary fenced after a promotion, the rebalancer converging a
// failed-over topic back onto the ring when its owner returns, and
// promotions that cascade past a dead candidate, fail and retry, or fail
// to become durable. All of them hold the same bar as the PR 5 harness:
// every topic's final snapshot byte-identical to a single-process control
// run.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"triclust"
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

// TestClusterReplicationFailover is the tentpole acceptance test: three
// persistent shards at RF=2, 54 topics of concurrent batch traffic, and
// one shard killed mid-stream — handler gone, server closed, never
// restarted. Topics the dead shard owned must be promoted from their
// cold replicas on the survivors and finish their streams; at the end,
// every topic (dead-shard-owned included) must be byte-identical to a
// single-process control run, with zero batches lost.
func TestClusterReplicationFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster harness is not short")
	}
	opts := serverOptions{
		journal: store.Options{Every: 4, MaxBytes: 8 << 20},
		repl:    fastRepl(),
		peer:    fastPeer(nil),
		// Enforce mode rides the failover harness too: replica promotion
		// replays the tail ungated (the records were already accepted),
		// re-stamps the mode, and must still match the control run
		// byte-for-byte — profile included.
		conform: triclust.ConformEnforce,
	}
	tc := newTestCluster(t, 3, opts, true)
	const victim = 1
	survivors := []int{0, 2}

	for i := 0; i < harnessTopics; i++ {
		tc.retryJSON("POST", tc.url(i%3)+"/v1/topics", harnessCreateReq(i), nil, http.StatusCreated)
	}
	victimOwned := map[int]bool{}
	for i := 0; i < harnessTopics; i++ {
		if tc.ownerIdx(harnessTopicName(i)) == victim {
			victimOwned[i] = true
		}
	}
	if len(victimOwned) == 0 {
		t.Fatal("ring left the victim shard empty; nothing would fail over")
	}

	// killed flips once the victim is gone; from then on workers address
	// only the survivors (a real client pool would do the same after
	// connection refusals — the harness listener instead answers 503
	// forever, which would exhaust the retry budget).
	var killed atomic.Bool
	base := func(k int) string {
		if killed.Load() {
			return tc.url(survivors[k%len(survivors)])
		}
		return tc.url(k % 3)
	}

	var acked atomic.Int64
	total := int64(harnessTopics * harnessDays)
	var wg sync.WaitGroup
	const workers = 6
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for day := 1; day <= harnessDays; day++ {
				for i := w; i < harnessTopics; i += workers {
					name := harnessTopicName(i)
					k := i + day
					var br batchResponse
					tc.retryJSONAt("POST", func() string { return base(k) }, "/v1/topics/"+name+"/batches", harnessBatch(i, day), &br, http.StatusOK)
					if br.Skipped {
						t.Errorf("topic %s day %d skipped", name, day)
						return
					}
					acked.Add(1)
				}
			}
		}(w)
	}

	// Kill the victim once ~40% of the stream is acked. No restart.
	awaitAcked(t, &acked, 0.4, total)
	tc.killShard(victim)
	killed.Store(true)

	wg.Wait()
	if t.Failed() {
		return
	}
	if got := acked.Load(); got != total {
		t.Fatalf("acked %d of %d batches", got, total)
	}

	// Zero topics lost: every topic answers through the survivors, and
	// every snapshot is byte-identical to the single-process control.
	// Promoted topics carry epoch 1 (one promotion past the dead
	// primary's 0); the control is stamped to match.
	for i := 0; i < harnessTopics; i++ {
		name := harnessTopicName(i)
		got := fetchSnapshot(t, tc.client, tc.url(survivors[i%2])+"/v1/topics/"+name+"/snapshot")
		wantEpoch := uint64(0)
		if victimOwned[i] {
			wantEpoch = 1
		}
		rt, err := triclust.Restore(bytes.NewReader(got))
		if err != nil {
			t.Fatalf("snapshot of %s does not restore: %v", name, err)
		}
		if rt.Epoch() != wantEpoch {
			t.Fatalf("topic %s epoch %d, want %d (victim-owned=%v)", name, rt.Epoch(), wantEpoch, victimOwned[i])
		}
		ctl := controlTopic(t, harnessCreateReq(i))
		for day := 1; day <= harnessDays; day++ {
			if _, err := ctl.Process(day, specTweets(harnessBatch(i, day))); err != nil {
				t.Fatalf("control %s day %d: %v", name, day, err)
			}
		}
		ctl.SetEpoch(wantEpoch)
		var wantBytes bytes.Buffer
		if err := ctl.Snapshot(&wantBytes); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantBytes.Bytes()) {
			t.Fatalf("topic %s: post-failover snapshot (%d bytes) differs from control (%d bytes)",
				name, len(got), wantBytes.Len())
		}
	}

	// The survivors report the failure: the victim is a down peer, and
	// replication health is being served at all.
	for _, i := range survivors {
		var hr healthResponse
		code, err := doJSON(tc.client, "GET", tc.url(i)+"/v1/healthz", nil, &hr)
		if err != nil || code != http.StatusOK {
			t.Fatalf("healthz shard %d: %d %v", i, code, err)
		}
		if hr.Replication == nil || hr.Replication.Factor != 2 {
			t.Fatalf("shard %d replication health %+v", i, hr.Replication)
		}
		found := false
		for _, p := range hr.Replication.DownPeers {
			if p == tc.url(victim) {
				found = true
			}
		}
		if !found {
			t.Fatalf("shard %d does not report the victim down: %+v", i, hr.Replication.DownPeers)
		}
	}
}

// flakyTransport mangles replica-ship traffic only: with probability p
// per request it drops the request before sending, drops the response
// after the follower processed it (exercising the duplicate-delivery
// ack), or delays the request. Probes and client traffic pass untouched.
type flakyTransport struct {
	next http.RoundTripper
	mu   sync.Mutex
	rng  *rand.Rand
	p    float64
}

func newFlakyTransport(seed int64, p float64) *flakyTransport {
	return &flakyTransport{next: http.DefaultTransport, rng: rand.New(rand.NewSource(seed)), p: p}
}

func (f *flakyTransport) roll() (fail bool, mode int, delay time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	fail = f.rng.Float64() < f.p
	mode = f.rng.Intn(3)
	delay = time.Duration(1+f.rng.Intn(4)) * time.Millisecond
	return
}

func (f *flakyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !strings.Contains(req.URL.Path, "/v1/replica/") {
		return f.next.RoundTrip(req)
	}
	fail, mode, delay := f.roll()
	if !fail {
		return f.next.RoundTrip(req)
	}
	switch mode {
	case 0: // drop the request on the floor
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, fmt.Errorf("flaky transport: dropped request to %s", req.URL.Path)
	case 1: // deliver, then lose the response
		resp, err := f.next.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		resp.Body.Close()
		return nil, fmt.Errorf("flaky transport: dropped response from %s", req.URL.Path)
	default: // deliver late
		time.Sleep(delay)
		return f.next.RoundTrip(req)
	}
}

// TestClusterReplicationFlakyTransport streams the full workload with
// ~12% of replica ships dropped or delayed. The in-request retries and
// the idempotent duplicate ack must absorb all of it: no client-visible
// failures, every topic byte-identical to control at epoch 0.
func TestClusterReplicationFlakyTransport(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster harness is not short")
	}
	opts := serverOptions{
		journal: store.Options{Every: 4, MaxBytes: 8 << 20},
		repl:    fastRepl(),
		peer:    fastPeer(newFlakyTransport(20260808, 0.12)),
	}
	tc := newTestCluster(t, 3, opts, true)

	const topics = 18 // fewer topics than the failover run: every batch ships through the flaky pipe
	for i := 0; i < topics; i++ {
		tc.retryJSON("POST", tc.url(i%3)+"/v1/topics", harnessCreateReq(i), nil, http.StatusCreated)
	}
	var wg sync.WaitGroup
	const workers = 3
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for day := 1; day <= harnessDays; day++ {
				for i := w; i < topics; i += workers {
					name := harnessTopicName(i)
					var br batchResponse
					tc.retryJSON("POST", tc.url((i+day)%3)+"/v1/topics/"+name+"/batches", harnessBatch(i, day), &br, http.StatusOK)
					if br.Skipped {
						t.Errorf("topic %s day %d skipped", name, day)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	for i := 0; i < topics; i++ {
		name := harnessTopicName(i)
		got := fetchSnapshot(t, tc.client, tc.url(i%3)+"/v1/topics/"+name+"/snapshot")
		ctl := controlTopic(t, harnessCreateReq(i))
		for day := 1; day <= harnessDays; day++ {
			if _, err := ctl.Process(day, specTweets(harnessBatch(i, day))); err != nil {
				t.Fatalf("control %s day %d: %v", name, day, err)
			}
		}
		var wantBytes bytes.Buffer
		if err := ctl.Snapshot(&wantBytes); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantBytes.Bytes()) {
			t.Fatalf("topic %s: snapshot under flaky replication differs from control", name)
		}
	}
	// No peer was ever wrongly declared down: ships are flaky, probes are
	// not, and ship failures must not feed the failure detector.
	for i := 0; i < 3; i++ {
		var hr healthResponse
		tc.retryJSON("GET", tc.url(i)+"/v1/healthz", nil, &hr, http.StatusOK)
		if hr.Replication == nil || len(hr.Replication.DownPeers) != 0 {
			t.Fatalf("shard %d wrongly holds peers down: %+v", i, hr.Replication)
		}
	}
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
		pb, pd := primary.resolve(name).tp.eng().StreamPos()
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
	pick := -1
	for i := 0; i < harnessTopics; i++ {
		if tc.ownerIdx(harnessTopicName(i)) == 0 {
			pick = i
			break
		}
	}
	if pick == -1 {
		t.Fatal("ring left shard 0 empty")
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

// TestClusterReplicationRebalanceAfterRecovery closes the loop: after a
// failover, the dead shard comes back (fresh boot off its old data dir).
// Startup reconciliation must fence its stale copy instead of serving
// forked state, and the auto-rebalancer on the promoted shard must hand
// the topic home once the ring owner is live again.
func TestClusterReplicationRebalanceAfterRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster harness is not short")
	}
	ro := fastRepl()
	ro.AutoRebalance = true
	ro.RebalanceInterval = ro.ProbeInterval // one tick steps the rebalancer too
	opts := serverOptions{
		journal: store.Options{Every: 4, MaxBytes: 8 << 20},
		repl:    ro,
		peer:    fastPeer(nil),
	}
	tc := newClockedCluster(t, 3, opts)

	pick := -1
	for i := 0; i < harnessTopics; i++ {
		if tc.ownerIdx(harnessTopicName(i)) == 0 {
			pick = i
			break
		}
	}
	if pick == -1 {
		t.Fatal("ring left shard 0 empty")
	}
	name := harnessTopicName(pick)
	tc.retryJSON("POST", tc.url(0)+"/v1/topics", harnessCreateReq(pick), nil, http.StatusCreated)
	for day := 1; day <= 3; day++ {
		tc.retryJSON("POST", tc.url(0)+"/v1/topics/"+name+"/batches", harnessBatch(pick, day), nil, http.StatusOK)
	}

	tc.killShard(0)
	tc.awaitServedAt(name, 1, []int{1, 2})
	// The stream continues against the promoted copy while the owner is
	// dead (routed via the survivors' failure detectors).
	for day := 4; day <= 5; day++ {
		tc.retryJSON("POST", tc.url(1)+"/v1/topics/"+name+"/batches", harnessBatch(pick, day), nil, http.StatusOK)
	}

	// The owner returns from its old data directory, which still holds
	// the topic at epoch 0. Reconciliation fences it; the rebalancer
	// then moves the promoted copy home at epoch 2.
	tc.boot(0)
	home := tc.awaitServedAt(name, 2, []int{0})
	if home != 0 {
		t.Fatalf("topic rebalanced to shard %d, want its ring owner 0", home)
	}

	// Post-recovery stream lands at home, and the final state is
	// byte-identical to control at epoch 2 (promotion + rebalance move).
	tc.retryJSON("POST", tc.url(0)+"/v1/topics/"+name+"/batches", harnessBatch(pick, 6), nil, http.StatusOK)
	got := fetchSnapshot(t, tc.client, tc.url(0)+"/v1/topics/"+name+"/snapshot")
	ctl := controlTopic(t, harnessCreateReq(pick))
	for day := 1; day <= 6; day++ {
		if _, err := ctl.Process(day, specTweets(harnessBatch(pick, day))); err != nil {
			t.Fatalf("control day %d: %v", day, err)
		}
	}
	ctl.SetEpoch(2)
	var wantBytes bytes.Buffer
	if err := ctl.Snapshot(&wantBytes); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantBytes.Bytes()) {
		t.Fatal("post-recovery snapshot differs from single-process control")
	}
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
	if tc.shards[b].srv.resolve(name).tp != nil {
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
	if tc.shards[1].srv.resolve(name).tp != nil {
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
