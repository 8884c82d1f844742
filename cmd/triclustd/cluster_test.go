package main

// The cluster test harness: several complete shards — full daemons with
// their own data directories — run in one process behind httptest
// listeners, so `go test -race` observes every cross-shard interaction.
// Each listener fronts a switchable handler, which is how the harness
// "kills" a shard: the handler is swapped out (new requests answer 503),
// in-flight requests are drained, and a fresh server is booted from the
// shard's data directory — exactly a process crash plus restart, minus
// the port juggling.
//
// The headline test drives 50+ topics of mixed batch/read/snapshot
// traffic from concurrent clients, kills and restarts a shard mid-stream,
// moves topics between shards mid-stream, and then holds the cluster to
// the determinism bar of PRs 3–4: every topic's final snapshot must be
// byte-identical to a single-process control run fed the same batches.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
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

// dirStore opens a plain store over a (stopped) shard's data directory,
// for tests that plant or inspect files exactly as a daemon writes them.
func dirStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{}, nil, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// servedTopic returns the topic s serves under name (nil: none).
func servedTopic(s *server, name string) *topic {
	tp, _ := s.route(name)
	return tp
}

// shardHandler is the switchable front of one shard. kill() swaps the
// handler out and waits for in-flight requests to drain, so the old
// server object is quiescent before a restarted one opens the same data
// directory.
type shardHandler struct {
	mu sync.RWMutex
	h  http.Handler
	wg sync.WaitGroup
	// refused counts the requests answered 503 while the shard was down.
	refused atomic.Int64
}

func (sh *shardHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sh.mu.RLock()
	h := sh.h
	if h != nil {
		sh.wg.Add(1)
	}
	sh.mu.RUnlock()
	if h == nil {
		sh.refused.Add(1)
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: errorDetail{Code: "shard_down", Message: "shard is down"}})
		return
	}
	defer sh.wg.Done()
	h.ServeHTTP(w, r)
}

func (sh *shardHandler) kill() {
	sh.mu.Lock()
	sh.h = nil
	sh.mu.Unlock()
	sh.wg.Wait()
}

func (sh *shardHandler) swap(h http.Handler) {
	sh.mu.Lock()
	sh.h = h
	sh.mu.Unlock()
}

type testShard struct {
	dir string
	hs  *httptest.Server
	sh  *shardHandler
	srv *server
	fs  fault.FS // nil: the cluster's opts.fs
}

type testCluster struct {
	t      *testing.T
	clock  *fault.Clock // nil: the shards wait on the wall clock
	shards []*testShard
	peers  []string
	opts   serverOptions // journal/maxBody template; cluster filled per shard
	vnodes int
	ring   *cluster.Ring
	// client follows redirects (the default Go behavior), so harness
	// traffic lands on the owning shard no matter which shard it asks.
	client *http.Client
	// noRedirect surfaces 307s for asserting on routing itself.
	noRedirect *http.Client
}

// newTestCluster boots n shards with fresh data directories. persistent
// false runs the cluster fully in memory (no -data-dir).
func newTestCluster(t *testing.T, n int, opts serverOptions, persistent bool) *testCluster {
	t.Helper()
	tc := &testCluster{
		t:      t,
		opts:   opts,
		vnodes: 32,
		client: &http.Client{Timeout: 60 * time.Second},
		noRedirect: &http.Client{
			Timeout: 60 * time.Second,
			CheckRedirect: func(*http.Request, []*http.Request) error {
				return http.ErrUseLastResponse
			},
		},
	}
	// The ring needs every peer URL, and httptest assigns URLs at listener
	// start — so start all listeners on placeholder handlers first, then
	// boot the servers against the complete peer list.
	for i := 0; i < n; i++ {
		sh := &shardHandler{}
		hs := httptest.NewServer(sh)
		t.Cleanup(hs.Close)
		dir := ""
		if persistent {
			dir = t.TempDir()
		}
		tc.shards = append(tc.shards, &testShard{dir: dir, hs: hs, sh: sh})
		tc.peers = append(tc.peers, hs.URL)
	}
	ring, err := cluster.New(tc.peers, tc.vnodes)
	if err != nil {
		t.Fatalf("ring: %v", err)
	}
	tc.ring = ring
	for i := range tc.shards {
		tc.boot(i)
	}
	return tc
}

// boot (re)starts shard i's server from its data directory and swaps it
// live.
func (tc *testCluster) boot(i int) {
	tc.t.Helper()
	sd := tc.shards[i]
	cc, err := newMembership(sd.hs.URL, strings.Join(tc.peers, ","), tc.vnodes)
	if err != nil {
		tc.t.Fatalf("shard %d cluster config: %v", i, err)
	}
	opts := tc.opts
	opts.cluster = cc
	if sd.fs != nil {
		opts.fs = sd.fs
	}
	s, err := newServer(sd.dir, opts, tc.t.Logf)
	if err != nil {
		tc.t.Fatalf("shard %d boot: %v", i, err)
	}
	s.start()
	tc.t.Cleanup(s.Close)
	sd.srv = s
	sd.sh.swap(s)
	tc.awaitReady(i)
}

// killShard takes shard i down for good: the listener answers 503, the
// in-flight requests drain, and the server object — detector, resync
// worker, replica handles — is shut down. Unlike kill()+boot(), nothing
// comes back: this is the process death the failover machinery exists
// for.
func (tc *testCluster) killShard(i int) {
	tc.shards[i].sh.kill()
	if srv := tc.shards[i].srv; srv != nil {
		srv.Close()
	}
}

// noBackoff delays every retry by 0, for a server on a manual clock: there
// a retry's wait would need an advance that only the request knows it
// needs.
var noBackoff = cluster.Backoff{Base: 1, Max: 1}

// newClockedCluster is newTestCluster, persistent, with every shard's
// loops waiting on one manual clock that tick advances, and no retry
// backoff.
func newClockedCluster(t *testing.T, n int, opts serverOptions) *testCluster {
	clock := fault.NewClock()
	opts.sleep, opts.peer.Backoff = clock.Sleep, noBackoff
	tc := newTestCluster(t, n, opts, true)
	tc.clock = clock
	return tc
}

// tick advances the manual clock one probe interval once every loop of
// every live shard is parked on it, and returns once all of them have
// parked again: each loop due ran exactly one round.
func (tc *testCluster) tick() {
	tc.t.Helper()
	tc.parkLoops()
	tc.clock.Advance(tc.opts.repl.ProbeInterval)
	tc.parkLoops()
}

// parkLoops waits until every loop of every live shard is parked: a probe
// loop per peer, the reconcile loop, the rebalancer if it is on (its
// interval must be the probe interval), and the storage prober while it
// runs.
// A round that degrades a topic starts the prober, so the count is taken
// again after each wait; the prober is counted before it can park.
func (tc *testCluster) parkLoops() {
	tc.t.Helper()
	loops := func() int {
		n := 0
		for _, sd := range tc.shards {
			if s := sd.srv; s != nil && s.ctx.Err() == nil {
				n += len(s.repl.peers) + 1
				if s.repl.opts.AutoRebalance {
					n++
				}
				s.storage.mu.Lock()
				if s.storage.running {
					n++
				}
				s.storage.mu.Unlock()
			}
		}
		return n
	}
	for n := -1; n != loops(); {
		if n = loops(); !tc.clock.WaitSleepers(n, eventuallyWithin) {
			tc.t.Fatalf("the %d loops of the live shards never all parked", n)
		}
	}
}

// await waits for cond: on the manual clock it ticks between checks, at
// most ticks times; on the wall clock it polls until eventually gives up.
func (tc *testCluster) await(ticks int, cond func() bool) bool {
	tc.t.Helper()
	if tc.clock == nil {
		return eventually(cond)
	}
	for tick := 0; !cond(); tick++ {
		if tick == ticks {
			return false
		}
		tc.tick()
	}
	return true
}

// eventuallyWithin bounds eventually: long enough that only a hang hits it
// on a loaded machine under the race detector.
const eventuallyWithin = 20 * time.Second

// eventually polls cond every few milliseconds until it holds or
// eventuallyWithin passes, and reports whether it held. It is how a test
// waits for the daemon to act, across HTTP or beside it, where nothing
// can be awaited directly.
func eventually(cond func() bool) bool {
	for deadline := time.Now().Add(eventuallyWithin); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// awaitReady polls the shard's /v1/healthz until it answers — the
// readiness gate the healthz endpoint exists for.
func (tc *testCluster) awaitReady(i int) {
	tc.t.Helper()
	url := tc.shards[i].hs.URL + "/v1/healthz"
	if !eventually(func() bool {
		var hr healthResponse
		code, err := doJSON(tc.client, "GET", url, nil, &hr)
		return err == nil && code == http.StatusOK && hr.Status == "ok"
	}) {
		tc.t.Fatalf("shard %d never became healthy", i)
	}
}

// url returns shard i's base URL.
func (tc *testCluster) url(i int) string { return tc.shards[i].hs.URL }

// ownerIdx resolves the ring owner of a topic to a shard index.
func (tc *testCluster) ownerIdx(topic string) int { return tc.peerIdx(tc.ring.Owner(topic)) }

// peerIdx resolves a peer URL to a shard index.
func (tc *testCluster) peerIdx(peer string) int {
	for i, p := range tc.peers {
		if p == peer {
			return i
		}
	}
	tc.t.Fatalf("%q is not a peer", peer)
	return -1
}

// ——— deterministic workload ———

const (
	harnessTopics = 54
	harnessDays   = 10
	harnessUsers  = 5
)

func harnessTopicName(i int) string { return fmt.Sprintf("t%02d", i) }

func harnessCreateReq(i int) createTopicRequest {
	users := make([]string, harnessUsers)
	for u := range users {
		users[u] = fmt.Sprintf("u%d", u)
	}
	return createTopicRequest{
		Name:  harnessTopicName(i),
		Users: users,
		Options: topicOptions{
			MaxIter: 4,
			Seed:    int64(100 + i),
			MinDF:   1,
		},
	}
}

// harnessBatch builds topic i's batch for a given day: small, non-empty,
// deterministic, with enough word overlap for the solver to have signal.
func harnessBatch(i, day int) batchRequest {
	word := func(k int) string { return fmt.Sprintf("w%d", ((k%11)+11)%11) }
	n := 3 + (i+day)%3
	tweets := make([]tweetSpec, 0, n)
	for j := 0; j < n; j++ {
		tweets = append(tweets, tweetSpec{
			Tokens: []string{word(i + j), word(day + 2*j), word(i*day + j)},
			User:   (i + day + j) % harnessUsers,
		})
	}
	return batchRequest{Time: day, Tweets: tweets}
}

// specTweets mirrors processBatch's wire→solver conversion, so the
// control run feeds its topics exactly the tweets the daemon fed its own.
func specTweets(req batchRequest) []triclust.Tweet {
	out := make([]triclust.Tweet, 0, len(req.Tweets))
	for _, ts := range req.Tweets {
		tw := triclust.Tweet{
			Text:      ts.Text,
			Tokens:    ts.Tokens,
			User:      ts.User,
			Time:      req.Time,
			RetweetOf: -1,
			Label:     triclust.NoLabel,
		}
		if ts.Time != nil {
			tw.Time = *ts.Time
		}
		if ts.RetweetOf != nil {
			tw.RetweetOf = *ts.RetweetOf
		}
		out = append(out, tw)
	}
	return out
}

// controlTopic mirrors createTopic's request→Topic construction.
func controlTopic(t *testing.T, req createTopicRequest) *triclust.Topic {
	t.Helper()
	users := make([]triclust.User, len(req.Users))
	for i, name := range req.Users {
		users[i] = triclust.User{Name: name, Label: triclust.NoLabel}
	}
	tp, err := triclust.NewTopic(users,
		triclust.WithSolverConfig(req.Options.onlineConfig()),
		triclust.WithMinDF(req.Options.MinDF),
		triclust.WithLexiconHit(req.Options.LexiconHit))
	if err != nil {
		t.Fatalf("control topic %s: %v", req.Name, err)
	}
	return tp
}

// retryJSON keeps issuing one request until it yields wantCode, riding
// out shard kills (503), routing races around a mid-stream move (404,
// redirect-cap errors) and the restart window. It fails the test once
// eventually gives up.
func (tc *testCluster) retryJSON(method, url string, body, out any, wantCode int) {
	tc.t.Helper()
	tc.retryJSONAt(method, func() string { return url }, "", body, out, wantCode)
}

// retryJSONAt is retryJSON with the base URL re-resolved on every
// attempt: a worker caught mid-retry against a shard that just died for
// good must fail over to a survivor instead of hammering the corpse for
// its whole retry budget.
func (tc *testCluster) retryJSONAt(method string, url func() string, path string, body, out any, wantCode int) {
	tc.t.Helper()
	var code int
	var err error
	if !eventually(func() bool {
		code, err = doJSON(tc.client, method, url()+path, body, out)
		return err == nil && code == wantCode
	}) {
		tc.t.Fatalf("%s %s never returned %d (last: %d, %v)", method, url()+path, wantCode, code, err)
	}
}

// awaitAcked waits until acked reaches frac of total.
func awaitAcked(t *testing.T, acked *atomic.Int64, frac float64, total int64) {
	t.Helper()
	want := int64(frac * float64(total))
	if !eventually(func() bool { return acked.Load() >= want }) {
		t.Fatalf("stream stalled at %d/%d acked batches", acked.Load(), total)
	}
}

// TestClusterShardingEndToEnd is the acceptance test of the sharded
// daemon (ISSUE 5): 3 persistent shards, 54 topics of concurrent mixed
// traffic, one shard killed and restarted mid-stream, two topics moved
// between shards mid-stream — and every topic's final snapshot
// byte-identical to a single-process control run.
func TestClusterShardingEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster harness is not short")
	}
	// Journal every 4 batches so the kill lands between compactions and
	// restart has a journal tail to replay. The conformance gate runs in
	// enforce mode: the harness stream is well-formed, so any rejection
	// is a false quarantine — and the control comparison below proves
	// enforce leaves snapshots byte-identical to an ungated run.
	tc := newTestCluster(t, 3, serverOptions{
		journal: store.Options{Every: 4, MaxBytes: 8 << 20},
		conform: triclust.ConformEnforce,
	}, true)

	// Create every topic through a rotating shard: roughly two thirds of
	// the creates arrive at the wrong shard and must be routed.
	for i := 0; i < harnessTopics; i++ {
		var sum topicSummary
		tc.retryJSON("POST", tc.url(i%3)+"/v1/topics", harnessCreateReq(i), &sum, http.StatusCreated)
		if sum.Name != harnessTopicName(i) {
			t.Fatalf("create %d: summary %+v", i, sum)
		}
	}

	// Pick the two topics to move mid-stream: one off shard 0, one off
	// shard 2 (the kill/restart victim is shard 1, so the moves exercise
	// healthy shards while the cluster as a whole is still degraded).
	moveA, moveB := -1, -1
	for i := 0; i < harnessTopics; i++ {
		name := harnessTopicName(i)
		if moveA == -1 && tc.ownerIdx(name) == 0 {
			moveA = i
		} else if moveB == -1 && tc.ownerIdx(name) == 2 {
			moveB = i
		}
	}
	if moveA == -1 || moveB == -1 {
		t.Fatalf("ring left a shard empty (moveA=%d moveB=%d)", moveA, moveB)
	}

	// Drive all topics concurrently: each worker owns a disjoint set of
	// topics (per-topic batch times must strictly increase), and mixes
	// reads and snapshot downloads into the batch stream.
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
					base := tc.url((i + day) % 3) // deliberately often the wrong shard
					var br batchResponse
					tc.retryJSON("POST", base+"/v1/topics/"+name+"/batches", harnessBatch(i, day), &br, http.StatusOK)
					if br.Skipped {
						t.Errorf("topic %s day %d skipped", name, day)
						return
					}
					acked.Add(1)
					// Mixed read traffic: user estimates, feature
					// sentiments, a topic summary, and a mid-stream
					// snapshot download.
					switch (i + day) % 4 {
					case 0:
						// The first tweet of the batch just acked came from
						// user (i+day)%harnessUsers, so that user has history.
						u := (i + day) % harnessUsers
						var ue userSentimentJSON
						tc.retryJSON("GET", fmt.Sprintf("%s/v1/topics/%s/users/%d", base, name, u), nil, &ue, http.StatusOK)
					case 1:
						var fr featuresResponse
						tc.retryJSON("GET", base+"/v1/topics/"+name+"/features", nil, &fr, http.StatusOK)
					case 2:
						var sum topicSummary
						tc.retryJSON("GET", base+"/v1/topics/"+name, nil, &sum, http.StatusOK)
					case 3:
						resp, err := tc.client.Get(base + "/v1/topics/" + name + "/snapshot")
						if err == nil {
							resp.Body.Close()
						}
					}
				}
			}
		}(w)
	}

	// Mid-stream chaos, phase 1: kill shard 1 abruptly (no graceful
	// drain beyond in-flight requests) once ~30% of batches are acked,
	// then restart it from its data directory — snapshot load plus
	// journal-tail replay — once traffic has hit the dead shard.
	awaitAcked(t, &acked, 0.3, total)
	tc.shards[1].sh.kill()
	if !eventually(func() bool { return tc.shards[1].sh.refused.Load() > 0 }) {
		t.Fatal("no request reached the dead shard")
	}
	tc.boot(1)

	// Phase 2: once ~60% of batches are acked, rebalance two topics while
	// their streams are still running.
	awaitAcked(t, &acked, 0.6, total)
	var mvResp moveResponse
	tc.retryJSON("POST", tc.url(1)+"/v1/cluster/move", // deliberately not the source: the move routes
		moveRequest{Topic: harnessTopicName(moveA), Target: tc.url(2)}, &mvResp, http.StatusOK)
	if mvResp.Epoch != 1 || mvResp.Target != tc.url(2) {
		t.Fatalf("move A response %+v", mvResp)
	}
	tc.retryJSON("POST", tc.url(2)+"/v1/cluster/move",
		moveRequest{Topic: harnessTopicName(moveB), Target: tc.url(0)}, &mvResp, http.StatusOK)
	if mvResp.Epoch != 1 || mvResp.Target != tc.url(0) {
		t.Fatalf("move B response %+v", mvResp)
	}

	wg.Wait()
	if t.Failed() {
		return
	}
	if got := acked.Load(); got != total {
		t.Fatalf("acked %d of %d batches", got, total)
	}

	// The old owner of a moved topic answers 307 with the new owner in
	// X-Triclust-Shard — across a restart of that shard, too, since the
	// tombstone is persisted.
	req, err := http.NewRequest("GET", tc.url(0)+"/v1/topics/"+harnessTopicName(moveA), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := tc.noRedirect.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("old owner answered %d, want 307", resp.StatusCode)
	}
	if got := resp.Header.Get(shardHeader); got != tc.url(2) {
		t.Fatalf("X-Triclust-Shard %q, want %q", got, tc.url(2))
	}

	// The determinism bar: every topic's snapshot — fetched through the
	// cluster, after a kill/restart and two mid-stream moves — must be
	// byte-identical to a single-process control run of the same batches.
	// Moved topics carry epoch 1 (one hand-off); the control topic is
	// stamped to match, making the comparison exact, not epoch-modulo.
	for i := 0; i < harnessTopics; i++ {
		name := harnessTopicName(i)
		got := fetchSnapshot(t, tc.client, tc.url(i%3)+"/v1/topics/"+name+"/snapshot")

		wantEpoch := uint64(0)
		if i == moveA || i == moveB {
			wantEpoch = 1
		}
		rt, err := triclust.Restore(bytes.NewReader(got))
		if err != nil {
			t.Fatalf("cluster snapshot of %s does not restore: %v", name, err)
		}
		if rt.Epoch() != wantEpoch {
			t.Fatalf("topic %s epoch %d, want %d", name, rt.Epoch(), wantEpoch)
		}

		ctl := controlTopic(t, harnessCreateReq(i))
		for day := 1; day <= harnessDays; day++ {
			if _, err := ctl.Process(day, specTweets(harnessBatch(i, day))); err != nil {
				t.Fatalf("control %s day %d: %v", name, day, err)
			}
		}
		ctl.SetEpoch(wantEpoch)
		var want bytes.Buffer
		if err := ctl.Snapshot(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("topic %s: cluster snapshot (%d bytes) differs from single-process control (%d bytes)",
				name, len(got), want.Len())
		}
	}

	// Every shard is still healthy and no startup quarantined anything.
	for i := range tc.shards {
		var hr healthResponse
		code, err := doJSON(tc.client, "GET", tc.url(i)+"/v1/healthz", nil, &hr)
		if err != nil || code != http.StatusOK {
			t.Fatalf("healthz shard %d: %d %v", i, code, err)
		}
		if hr.Quarantined != 0 {
			t.Fatalf("shard %d quarantined %d files", i, hr.Quarantined)
		}
		if hr.Cluster == nil || hr.Cluster.Self != tc.url(i) {
			t.Fatalf("shard %d cluster health %+v", i, hr.Cluster)
		}
	}
}

// TestClusterMoveAndEpochFencing covers the ownership-epoch state machine
// on an in-memory cluster (moves work without -data-dir): a move bumps
// the epoch, the source redirects from then on and counts the tombstone
// in healthz, a stale pre-move snapshot is fenced with epoch_mismatch,
// and a second move hands the topic back at epoch 2.
func TestClusterMoveAndEpochFencing(t *testing.T) {
	tc := newTestCluster(t, 3, serverOptions{}, false)
	name := harnessTopicName(7)
	src := tc.ownerIdx(name)
	dst := (src + 1) % 3

	var sum topicSummary
	tc.retryJSON("POST", tc.url(src)+"/v1/topics", harnessCreateReq(7), &sum, http.StatusCreated)
	for day := 1; day <= 3; day++ {
		var br batchResponse
		tc.retryJSON("POST", tc.url(src)+"/v1/topics/"+name+"/batches", harnessBatch(7, day), &br, http.StatusOK)
	}
	stale := fetchSnapshot(t, tc.client, tc.url(src)+"/v1/topics/"+name+"/snapshot")

	var mv moveResponse
	code, err := doJSON(tc.client, "POST", tc.url(src)+"/v1/cluster/move",
		moveRequest{Topic: name, Target: tc.url(dst)}, &mv)
	if err != nil || code != http.StatusOK {
		t.Fatalf("move: %d %v", code, err)
	}
	if mv.Epoch != 1 || mv.Source != tc.url(src) || mv.Target != tc.url(dst) || mv.Batches != 3 {
		t.Fatalf("move response %+v", mv)
	}

	// The source now refuses the topic: writes 307 to the target.
	req, err := http.NewRequest("GET", tc.url(src)+"/v1/topics/"+name, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := tc.noRedirect.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect || resp.Header.Get(shardHeader) != tc.url(dst) {
		t.Fatalf("source answered %d shard=%q", resp.StatusCode, resp.Header.Get(shardHeader))
	}
	var hr healthResponse
	tc.retryJSON("GET", tc.url(src)+"/v1/healthz", nil, &hr, http.StatusOK)
	if hr.Cluster == nil || hr.Cluster.MovedTopics != 1 {
		t.Fatalf("source healthz after the move: %+v, want 1 moved topic", hr.Cluster)
	}

	// The target serves it, at epoch 1, and the stream continues.
	var br batchResponse
	tc.retryJSON("POST", tc.url(dst)+"/v1/topics/"+name+"/batches", harnessBatch(7, 4), &br, http.StatusOK)
	var info clusterInfoResponse
	tc.retryJSON("GET", tc.url(dst)+"/v1/cluster/info?topic="+name, nil, &info, http.StatusOK)
	if info.Topic == nil || !info.Topic.Local || info.Topic.Epoch != 1 {
		t.Fatalf("target placement %+v", info.Topic)
	}

	// Epoch fencing: installing the stale pre-move snapshot (epoch 0) on
	// the source — even through the hand-off path — is refused.
	preq, err := http.NewRequest(http.MethodPut, tc.url(src)+"/v1/topics/"+name, bytes.NewReader(stale))
	if err != nil {
		t.Fatal(err)
	}
	preq.Header.Set(handoffHeader, "1")
	presp, err := tc.noRedirect.Do(preq)
	if err != nil {
		t.Fatal(err)
	}
	var eb errorBody
	if err := json.NewDecoder(presp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode != http.StatusConflict || eb.Error.Code != codeEpochMismatch {
		t.Fatalf("stale restore: %d %q, want 409 %q", presp.StatusCode, eb.Error.Code, codeEpochMismatch)
	}

	// Moving the topic again is rejected at the source (it moved on) but
	// succeeds at the current owner, handing it home at epoch 2 — which
	// clears the source's tombstone.
	code, _ = errCode2(t, tc.noRedirect, "POST", tc.url(src)+"/v1/cluster/move",
		moveRequest{Topic: name, Target: tc.url(dst)})
	if code != http.StatusTemporaryRedirect && code != http.StatusConflict {
		t.Fatalf("re-move at source: %d", code)
	}
	code, err = doJSON(tc.client, "POST", tc.url(dst)+"/v1/cluster/move",
		moveRequest{Topic: name, Target: tc.url(src)}, &mv)
	if err != nil || code != http.StatusOK || mv.Epoch != 2 {
		t.Fatalf("move back: %d %v %+v", code, err, mv)
	}
	tc.retryJSON("POST", tc.url(src)+"/v1/topics/"+name+"/batches", harnessBatch(7, 5), &br, http.StatusOK)
	tc.retryJSON("GET", tc.url(src)+"/v1/cluster/info?topic="+name, nil, &info, http.StatusOK)
	if info.Topic == nil || !info.Topic.Local || info.Topic.Epoch != 2 {
		t.Fatalf("after move back: %+v", info.Topic)
	}

	// Validation errors on the move endpoint itself.
	code, ec := errCode2(t, tc.client, "POST", tc.url(src)+"/v1/cluster/move",
		moveRequest{Topic: name, Target: "http://not-a-peer:1"})
	if code != http.StatusBadRequest || ec != codeUnknownPeer {
		t.Fatalf("bad target: %d %q", code, ec)
	}
	code, ec = errCode2(t, tc.client, "POST", tc.url(src)+"/v1/cluster/move",
		moveRequest{Topic: "no-such-topic", Target: tc.url(dst)})
	if code != http.StatusNotFound || ec != codeTopicNotFound {
		t.Fatalf("missing topic: %d %q", code, ec)
	}
	code, ec = errCode2(t, tc.client, "POST", tc.url(src)+"/v1/cluster/move",
		moveRequest{Topic: name, Target: tc.url(src)})
	if code != http.StatusBadRequest || ec != codeInvalidRequest {
		t.Fatalf("move onto self: %d %q", code, ec)
	}

	// Every write path that loses the race to a hand-off follows the
	// tombstone: requests that found the topic, then waited on its lock
	// while it left (the lock is held here, the topic fenced under it as
	// a hand-off leaves it), are forwarded — not told 404 about a topic
	// that merely moved.
	srv := tc.shards[src].srv
	tp := servedTopic(srv, name)
	tp.mu.Lock()
	late := map[string]any{
		"/v1/topics/" + name + "/vocab":   vocabRequest{},
		"/v1/topics/" + name + "/batches": harnessBatch(7, 6),
		"/v1/cluster/move":                moveRequest{Topic: name, Target: tc.url(dst)},
	}
	type answer struct {
		path, shard string
		code        int
	}
	answers := make(chan answer, len(late))
	for path, body := range late {
		go func() {
			data, _ := json.Marshal(body)
			resp, err := tc.noRedirect.Post(tc.url(src)+path, "application/json", bytes.NewReader(data))
			if err != nil {
				answers <- answer{path: path}
				return
			}
			resp.Body.Close()
			answers <- answer{path, resp.Header.Get(shardHeader), resp.StatusCode}
		}()
	}
	if !eventually(func() bool { return lockWaiters("(*server).update", "(*server).performHandoff") == len(late) }) {
		t.Fatalf("%d of %d requests reached the topic lock", lockWaiters("(*server).update", "(*server).performHandoff"), len(late))
	}
	srv.fenceLocal(tp, 3, tc.url(dst), "simulated hand-off")
	tp.mu.Unlock()
	for range late {
		if a := <-answers; a.code != http.StatusTemporaryRedirect || a.shard != tc.url(dst) {
			t.Fatalf("POST %s behind a hand-off answered %d shard=%q, want 307 to %s", a.path, a.code, a.shard, tc.url(dst))
		}
	}
}

// errCode2 is errCode for clients that must not follow redirects (the
// original helper decodes the response body, which a 307 does not have).
func errCode2(t *testing.T, client *http.Client, method, url string, body any) (int, string) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var eb errorBody
	_ = json.NewDecoder(resp.Body).Decode(&eb)
	return resp.StatusCode, eb.Error.Code
}

// lostAckTransport performs every request for real, but reports the first
// hand-off PUT's response as lost: the target installed the topic, the
// source only sees a transport error.
type lostAckTransport struct {
	lost atomic.Bool
}

func (l *lostAckTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err == nil && req.Header.Get(handoffHeader) != "" && l.lost.CompareAndSwap(false, true) {
		resp.Body.Close()
		return nil, fmt.Errorf("injected: the response to %s %s was lost", req.Method, req.URL.Path)
	}
	return resp, err
}

// TestClusterMoveLostInstallAck: the hand-off PUT lands but its ack does
// not. The source must neither un-fence (two owners) nor park the move
// (the target can be asked): the placement query at the hand-off epoch
// finds the topic installed, and the move completes.
func TestClusterMoveLostInstallAck(t *testing.T) {
	transport := &lostAckTransport{}
	tc := newTestCluster(t, 3, serverOptions{
		journal: store.Options{Every: 4, MaxBytes: 8 << 20},
		peer:    fastPeer(transport),
	}, true)
	name := harnessTopicName(5)
	src := tc.ownerIdx(name)
	dst := (src + 1) % 3
	tc.retryJSON("POST", tc.url(src)+"/v1/topics", harnessCreateReq(5), nil, http.StatusCreated)
	ctl := controlTopic(t, harnessCreateReq(5))
	for day := 1; day <= 3; day++ {
		tc.retryJSON("POST", tc.url(src)+"/v1/topics/"+name+"/batches", harnessBatch(5, day), nil, http.StatusOK)
		if _, err := ctl.Process(day, specTweets(harnessBatch(5, day))); err != nil {
			t.Fatal(err)
		}
	}

	var mv moveResponse
	code, err := doJSON(tc.client, "POST", tc.url(src)+"/v1/cluster/move",
		moveRequest{Topic: name, Target: tc.url(dst)}, &mv)
	if err != nil || code != http.StatusOK || mv.Epoch != 1 || mv.Batches != 3 {
		t.Fatalf("move with a lost install ack: %d %v %+v", code, err, mv)
	}
	if !transport.lost.Load() {
		t.Fatal("the hand-off PUT never crossed the transport")
	}

	ctl.SetEpoch(1)
	var want bytes.Buffer
	if err := ctl.Snapshot(&want); err != nil {
		t.Fatal(err)
	}
	if got := fetchSnapshot(t, tc.noRedirect, tc.url(dst)+"/v1/topics/"+name+"/snapshot"); !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("target snapshot (%d bytes) differs from the control (%d bytes)", len(got), want.Len())
	}
	if tp, pl := tc.shards[src].srv.route(name); tp != nil || !pl.Moved || pl.Owner != tc.url(dst) || pl.Epoch != 1 {
		t.Fatalf("source placement after the move: %+v, want a tombstone to %s at epoch 1", pl, tc.url(dst))
	}
	if dirStore(t, tc.shards[src].dir).HasSnapshot(name) {
		t.Fatal("source still holds the snapshot of a topic it handed off")
	}
}

// TestMoveRequiresClusterMode pins the single-process behavior of the
// cluster endpoints: clean structured errors, not 404s.
func TestMoveRequiresClusterMode(t *testing.T) {
	_, srv := testServer(t, "")
	client := srv.Client()
	code, ec := errCode(t, client, "POST", srv.URL+"/v1/cluster/move", moveRequest{Topic: "x", Target: "y"})
	if code != http.StatusConflict || ec != codeNotClustered {
		t.Fatalf("move without cluster: %d %q", code, ec)
	}
	code, ec = errCode(t, client, "GET", srv.URL+"/v1/cluster/info", nil)
	if code != http.StatusConflict || ec != codeNotClustered {
		t.Fatalf("info without cluster: %d %q", code, ec)
	}
}
