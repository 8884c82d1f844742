package main

// The cluster test harness: several complete shards — full daemons with
// their own data directories — run in one process on an in-process
// network, so `go test -race` observes every cross-shard interaction.
// Each shard sits behind a switchable front, which is how the harness
// "kills" a shard: the handler is swapped out (new requests answer 503),
// in-flight requests are drained, and a fresh server is booted from the
// shard's data directory — exactly a process crash plus restart.
//
// TestClusterSim (sim_test.go) drives the shards through seeded and named
// schedules of traffic and faults and holds every topic to the determinism
// bar: its final snapshot byte-identical to a single-process control run
// fed the acked batches. The scenario here pins the move endpoint's
// answers on an in-memory cluster.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
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
}

func (sh *shardHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sh.mu.RLock()
	h := sh.h
	if h != nil {
		sh.wg.Add(1)
	}
	sh.mu.RUnlock()
	if h == nil {
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
	sh  *shardHandler
	srv *server
	fs  fault.FS // nil: the cluster's opts.fs
	// transport carries the shard's peer requests (nil: the cluster's
	// opts.peer.Transport, or else the cluster's network).
	transport http.RoundTripper
}

// testCluster is the harness's network as well: its RoundTrip serves a
// request in process, on the caller's goroutine, through the front of the
// shard its URL names, so a handler has returned by the time its client
// reads the answer, and a shard needs no listener. Its shards are
// http://shard0, http://shard1, …, so a name lands on the same shard on
// every run.
type testCluster struct {
	t      *testing.T
	clock  *fault.Clock // every shard waits on it
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
	// logs holds every line the shards logged, in order (see logf); a
	// failed test prints dump once, at its end (nil: nothing).
	logMu sync.Mutex
	logs  []string
	dump  func() string
}

// onNet is embedded by a peer transport that fails or loses requests on
// their way: the harness points net at its network before the first boot.
type onNet struct{ net http.RoundTripper }

func (o *onNet) over(net http.RoundTripper) { o.net = net }

// newCluster boots n shards with fresh data directories (persistent false:
// fully in memory, no -data-dir), every shard's loops waiting on one manual
// clock that tick steps by the probe interval (unset: fastProbe), and no
// retry backoff.
func newCluster(t *testing.T, n int, opts serverOptions, persistent bool) *testCluster {
	t.Helper()
	opts.peer.Backoff = noBackoff
	if opts.probeEvery == 0 {
		opts.probeEvery = fastProbe
	}
	tc := &testCluster{t: t, clock: fault.NewClock(), opts: opts, vnodes: 32}
	tc.dump = func() string {
		tc.logMu.Lock()
		defer tc.logMu.Unlock()
		return strings.Join(tc.logs, "\n")
	}
	t.Cleanup(func() {
		if t.Failed() && tc.dump != nil {
			t.Logf("the shards logged:\n%s", tc.dump())
		}
	})
	tc.client = &http.Client{Transport: tc}
	tc.noRedirect = &http.Client{Transport: tc, CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	if w, ok := opts.peer.Transport.(interface{ over(http.RoundTripper) }); ok {
		w.over(tc)
	}
	for i := range n {
		dir := ""
		if persistent {
			dir = t.TempDir()
		}
		tc.shards = append(tc.shards, &testShard{dir: dir, sh: &shardHandler{}})
		tc.peers = append(tc.peers, fmt.Sprintf("http://shard%d", i))
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

// RoundTrip is the harness's network (see testCluster).
func (tc *testCluster) RoundTrip(req *http.Request) (*http.Response, error) {
	i := slices.Index(tc.peers, "http://"+req.URL.Host)
	if i < 0 {
		return nil, fmt.Errorf("%s is no shard of this cluster", req.URL.Host)
	}
	r := req.Clone(req.Context())
	r.RequestURI = req.URL.RequestURI()
	if r.Body == nil {
		r.Body = http.NoBody
	}
	rec := httptest.NewRecorder()
	tc.shards[i].sh.ServeHTTP(rec, r)
	return rec.Result(), nil
}

// logf is every shard's log, kept in tc.logs.
func (tc *testCluster) logf(format string, args ...any) {
	tc.logMu.Lock()
	tc.logs = append(tc.logs, fmt.Sprintf(format, args...))
	tc.logMu.Unlock()
}

// shardLog is the test as its shards see it: their lines go to tc.logs.
type shardLog struct {
	*testing.T
	tc *testCluster
}

func (l shardLog) Logf(format string, args ...any) { l.tc.logf(format, args...) }

// boot (re)starts shard i's server from its data directory and swaps it
// live. On the manual clock each of its waits is keyed by the shard and
// the function that waits, so tick wakes the loops in one order.
func (tc *testCluster) boot(i int) {
	tc.t.Helper()
	sd := tc.shards[i]
	cc, err := newMembership(tc.peers[i], strings.Join(tc.peers, ","), tc.vnodes)
	if err != nil {
		tc.t.Fatalf("shard %d cluster config: %v", i, err)
	}
	opts := tc.opts
	opts.cluster = cc
	if sd.fs != nil {
		opts.fs = sd.fs
	}
	if sd.transport != nil {
		opts.peer.Transport = sd.transport
	} else if opts.peer.Transport == nil {
		opts.peer.Transport = tc
	}
	opts.sleep = func(ctx context.Context, d time.Duration) bool {
		pc, _, _, _ := runtime.Caller(1)
		return tc.clock.SleepAs(ctx, d, fmt.Sprint(i, " ", runtime.FuncForPC(pc).Name()))
	}
	s := serve(shardLog{tc.t, tc}, sd.dir, opts, true)
	s.start()
	sd.srv = s
	sd.sh.swap(s)
}

// killShard takes shard i down for good: its front answers 503, the
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

// tick moves the manual clock one probe interval once every loop of every
// live shard is parked on it, and returns once all of them have parked
// again: each loop due ran exactly one round. The loops run one at a time,
// in the order of their keys (see boot), so a tick has one outcome; the
// race leg wakes them all at once instead.
func (tc *testCluster) tick() {
	tc.t.Helper()
	tc.parkLoops()
	if raceLeg {
		tc.clock.Advance(tc.opts.probeEvery)
		tc.parkLoops()
		return
	}
	tc.clock.Step(tc.opts.probeEvery, tc.parkLoops)
}

// parkLoops waits until every loop of every live shard is parked: the
// resume loop, with replication a probe loop per peer and the reconcile
// loop, the rebalancer if it is on, and the storage prober while it runs.
// A round that degrades a topic starts the prober, so the count is taken
// again after each wait; the prober is counted before it can park.
func (tc *testCluster) parkLoops() {
	tc.t.Helper()
	loops := func() int {
		n := 0
		for _, sd := range tc.shards {
			if s := sd.srv; s != nil && s.ctx.Err() == nil {
				n++
				if r := s.repl; r != nil {
					n += len(r.peers) + 1
					if r.opts.AutoRebalance {
						n++
					}
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
	// The prober stops itself at the end of the round that recovers the
	// last topic, so the count is re-read whenever the wait stalls.
	for deadline := time.Now().Add(eventuallyWithin); ; {
		if n := loops(); tc.clock.WaitSleepers(n, 10*time.Millisecond) && n == loops() {
			return
		} else if time.Now().After(deadline) {
			tc.t.Fatalf("the %d loops of the live shards never all parked", n)
		}
	}
}

// await waits for cond, ticking between checks at most ticks times.
func (tc *testCluster) await(ticks int, cond func() bool) bool {
	tc.t.Helper()
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

// url returns shard i's base URL.
func (tc *testCluster) url(i int) string { return tc.peers[i] }

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

const harnessUsers = 5

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
// out shard kills (503), routing races around a move (404, redirect-cap
// errors) and the restart window. It fails the test once eventually gives
// up.
func (tc *testCluster) retryJSON(method, url string, body, out any, wantCode int) {
	tc.t.Helper()
	var r reply
	if !eventually(func() bool {
		r = call(nil, tc.client, method, url, body, out)
		return r.err == nil && r.code == wantCode
	}) {
		tc.t.Fatalf("%s %s never returned %d (last: %d, %v)", method, url, wantCode, r.code, r.err)
	}
}

// TestClusterMoveAndEpochFencing is the move endpoint's answers, in order,
// on an in-memory cluster (moves work without -data-dir): a move bumps the
// epoch and names both shards; the source then redirects the topic and a
// re-move to the target, and fences the stale pre-move snapshot; the
// endpoint refuses an unknown peer, an unknown topic and a move to where
// the topic lives; and the topic moves back at epoch 2, the shard it left
// counting the tombstone in healthz. Want is the reply's body for a 200,
// the shard a 307 names, else the error code. A placement query answers for
// the epoch it asks about, and a write that waited out a hand-off follows it.
func TestClusterMoveAndEpochFencing(t *testing.T) {
	tc := newCluster(t, 3, serverOptions{}, false)
	name := harnessTopicName(7)
	src := tc.ownerIdx(name)
	dst := (src + 1) % 3
	tc.retryJSON("POST", tc.url(src)+"/v1/topics", harnessCreateReq(7), nil, http.StatusCreated)
	for day := 1; day <= 3; day++ {
		tc.retryJSON("POST", tc.url(src)+"/v1/topics/"+name+"/batches", harnessBatch(7, day), nil, http.StatusOK)
	}
	r := call(t, tc.client, "GET", tc.url(src)+"/v1/topics/"+name+"/snapshot", nil, nil)
	if ct := r.hdr.Get("Content-Type"); r.code != http.StatusOK || ct != "application/octet-stream" {
		t.Fatalf("snapshot: status %d content type %q", r.code, ct)
	}
	stale := r.body
	move := func(topic string, target int) moveRequest { return moveRequest{Topic: topic, Target: tc.url(target)} }
	moved := func(from, to int, epoch uint64) string {
		b, _ := json.Marshal(moveResponse{Topic: name, Source: tc.url(from), Target: tc.url(to), Epoch: epoch, Batches: 3})
		return string(b)
	}
	for _, c := range []struct {
		method string
		at     int
		path   string
		body   any
		code   int
		want   string
	}{
		{"POST", src, "/v1/cluster/move", move(name, dst), http.StatusOK, moved(src, dst, 1)},
		{"GET", src, "/v1/topics/" + name, nil, http.StatusTemporaryRedirect, tc.url(dst)},
		{"POST", src, "/v1/cluster/move", move(name, dst), http.StatusTemporaryRedirect, tc.url(dst)},
		{"PUT", src, "/v1/topics/" + name, stale, http.StatusConflict, codeEpochMismatch},
		{"POST", src, "/v1/cluster/move", moveRequest{Topic: name, Target: "http://not-a-peer:1"}, http.StatusBadRequest, codeUnknownPeer},
		{"POST", src, "/v1/cluster/move", move("no-such-topic", dst), http.StatusNotFound, codeTopicNotFound},
		{"POST", dst, "/v1/cluster/move", move(name, dst), http.StatusBadRequest, codeInvalidRequest},
		{"POST", dst, "/v1/cluster/move", move(name, src), http.StatusOK, moved(dst, src, 2)},
	} {
		n, header := simShards, []string(nil)
		if c.code == http.StatusTemporaryRedirect {
			n = -1
		}
		if c.method == "PUT" { // a hand-off's install of the snapshot
			header = []string{"Content-Type", mediaTypeSnapshot, handoffHeader, "1"}
		}
		a := call(nil, hops{tc.noRedirect, n}, c.method, tc.url(c.at)+c.path, c.body, nil, header...)
		got := a.ec
		switch a.code {
		case http.StatusOK:
			got = strings.TrimSpace(string(a.body))
		case http.StatusTemporaryRedirect:
			got = a.shard
		}
		if a.err != nil || a.code != c.code || got != c.want {
			t.Fatalf("%s %s at shard %d answered %d %s (%v), want %d %s", c.method, c.path, c.at, a.code, got, a.err, c.code, c.want)
		}
	}
	var hr healthResponse
	if r := call(nil, tc.client, "GET", tc.url(dst)+"/v1/healthz", nil, &hr); r.err != nil || r.code != http.StatusOK || hr.Cluster == nil || hr.Cluster.MovedTopics != 1 {
		t.Fatalf("healthz of the shard the topic left: %d %v %+v, want 1 moved topic", r.code, r.err, hr.Cluster)
	}
	// The placement query a hand-off and a promotion rest on answers for
	// the epoch it is asked about.
	for epoch, want := range []bool{true, true, true, false} {
		if has, ok := tc.shards[dst].srv.peers.Holds(t.Context(), tc.url(src), name, uint64(epoch)); has != want || !ok {
			t.Fatalf("Holds(%s at epoch ≥ %d) = %v, %v; shard %d serves it at epoch 2", name, epoch, has, ok, src)
		}
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
	answers := make(chan reply, len(late))
	for path, body := range late {
		go func() {
			a := call(nil, tc.noRedirect, "POST", tc.url(src)+path, body, nil)
			a.etag = path
			answers <- a
		}()
	}
	if !eventually(func() bool { return lockWaiters("(*server).update", "(*server).performHandoff") == len(late) }) {
		waiting := lockWaiters("(*server).update", "(*server).performHandoff")
		tp.mu.Unlock() // failing with it held would wedge the shards' cleanup
		t.Fatalf("%d of %d requests reached the topic lock", waiting, len(late))
	}
	srv.fenceLocal(tp, 3, tc.url(dst), "simulated hand-off")
	tp.mu.Unlock()
	for range late {
		if a := <-answers; a.code != http.StatusTemporaryRedirect || a.shard != tc.url(dst) {
			t.Fatalf("POST %s behind a hand-off answered %v shard=%q, want 307 to %s", a.etag, a, a.shard, tc.url(dst))
		}
	}
}

// TestMoveRequiresClusterMode pins the single-process behavior of the
// cluster endpoints: clean structured errors, not 404s.
func TestMoveRequiresClusterMode(t *testing.T) {
	srv := front(t, serve(t, "", serverOptions{}, false))
	client := srv.Client()
	r := call(t, client, "POST", srv.URL+"/v1/cluster/move", moveRequest{Topic: "x", Target: "y"}, nil)
	if r.code != http.StatusConflict || r.ec != codeNotClustered {
		t.Fatalf("move without cluster: %d %q", r.code, r.ec)
	}
	r = call(t, client, "GET", srv.URL+"/v1/cluster/info", nil, nil)
	if r.code != http.StatusConflict || r.ec != codeNotClustered {
		t.Fatalf("info without cluster: %d %q", r.code, r.ec)
	}
}

// TestParkedHandoffAnswersThenResumes: a data dir where the ring owner S
// holds a topic's snapshot beside a tombstone naming T — a hand-off
// interrupted before T confirmed it. Two shards, with and without
// replication: T does not hold the topic. A client following redirects from
// either shard gets a retryable 503 handoff_pending within two hops, never a
// redirect loop, and S's placement query counts the parked topic as held
// at the tombstone's epoch; one tick later the resume loop has installed
// the topic on T, where every entry reaches it at the fencing epoch with
// its batches.
// Three shards (moved-on): the install had landed and T has moved the
// topic on to U at epoch 2. T's fence refuses the resume, which is the
// verdict: S drops its copy and routes after its tombstone, so every entry
// reaches U.
func TestParkedHandoffAnswersThenResumes(t *testing.T) {
	for _, c := range []struct {
		name            string
		shards, rf      int
		movedOn         bool
		holder, atEpoch int // the shard serving the topic after the tick (0: T, 1: U), at what epoch
	}{
		{"rf=1", 2, 1, false, 0, 1},
		{"rf=2", 2, 2, false, 0, 1},
		{"moved-on", 3, 1, true, 1, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			ro := fastRepl()
			ro.Factor = c.rf
			tc := newCluster(t, c.shards, serverOptions{journal: store.Options{Every: 4, MaxBytes: 8 << 20}, repl: ro}, true)
			name := harnessTopicName(3)
			s := tc.ownerIdx(name)
			tt, u := (s+1)%c.shards, (s+2)%c.shards
			tc.retryJSON("POST", tc.url(s)+"/v1/topics", harnessCreateReq(3), nil, http.StatusCreated)
			for day := 1; day <= 2; day++ {
				tc.retryJSON("POST", tc.url(s)+"/v1/topics/"+name+"/batches", harnessBatch(3, day), nil, http.StatusOK)
			}
			tc.killShard(s)
			files := map[string][]byte{}
			for _, ext := range []string{".snap", ".journal"} {
				if b, err := os.ReadFile(filepath.Join(tc.shards[s].dir, name+ext)); err == nil {
					files[ext] = b
				}
			}
			if err := dirStore(t, tc.shards[s].dir).SetTombstone(name, cluster.Tombstone{Epoch: 1, Target: tc.url(tt)}); err != nil {
				t.Fatal(err)
			}
			tc.boot(s)
			if c.movedOn {
				// The hand-off lands on T and moves on to U; then S stops
				// before it removed the files it handed off.
				tc.retryJSON("POST", tc.url(s)+"/v1/cluster/move", moveRequest{Topic: name, Target: tc.url(tt)}, nil, http.StatusOK)
				tc.retryJSON("POST", tc.url(tt)+"/v1/cluster/move", moveRequest{Topic: name, Target: tc.url(u)}, nil, http.StatusOK)
				tc.killShard(s)
				for ext, b := range files {
					if err := os.WriteFile(filepath.Join(tc.shards[s].dir, name+ext), b, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				tc.boot(s)
			}

			entries := []int{s, tt}
			if c.movedOn {
				entries = []int{s}
			}
			for _, entry := range entries {
				a := call(nil, hops{tc.noRedirect, 2}, "GET", tc.url(entry)+"/v1/topics/"+name, nil, nil)
				if a.err != nil || a.code != http.StatusServiceUnavailable || a.ec != codeHandoffPending {
					t.Fatalf("GET through shard %d before the resume: %v %v, want 503 %s within two hops", entry, a, a.err, codeHandoffPending)
				}
			}
			// S holds the hand-off parked: its state is on disk at the
			// tombstone's epoch, and the placement query says so.
			var info clusterInfoResponse
			if a := call(t, tc.client, "GET", tc.url(s)+"/v1/cluster/info?topic="+name, nil, &info); a.code != http.StatusOK ||
				info.Topic == nil || !info.Topic.Local || info.Topic.Epoch != 1 {
				t.Fatalf("placement query at S before the resume: %d %+v, want local at the tombstone's epoch 1", a.code, info.Topic)
			}
			tc.tick()
			if p := tc.shards[s].srv.table.Parked(); len(p) > 0 {
				t.Fatalf("S still holds %v parked after a tick", p)
			}
			for entry := range c.shards {
				var sum topicSummary
				a := call(nil, hops{tc.noRedirect, 2}, "GET", tc.url(entry)+"/v1/topics/"+name, nil, nil)
				if a.err != nil || a.code != http.StatusOK || json.Unmarshal(a.body, &sum) != nil || sum.Batches != 2 {
					t.Fatalf("GET through shard %d after a tick: %v %v (%+v), want 200 with 2 batches", entry, a, a.err, sum)
				}
			}
			if tp := servedTopic(tc.shards[[]int{tt, u}[c.holder]].srv, name); tp == nil || tp.eng.Epoch() != uint64(c.atEpoch) {
				t.Fatalf("the topic is not served at epoch %d where its hand-offs went", c.atEpoch)
			}
			if tc.shards[s].srv.store.HasSnapshot(name) {
				t.Fatal("S kept the files of a hand-off that has its verdict")
			}
		})
	}
}
