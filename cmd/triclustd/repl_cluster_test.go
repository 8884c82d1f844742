package main

// Fault-injection scenarios for journal-shipped replication, each pinning
// what the simulator (TestClusterSim) does not reach: idle followers
// converging past a bounded queue, and a restarted primary fenced at
// start-up while two shards are down.

import (
	"encoding/json"
	"fmt"
	"net/http"
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

// fastProbe is the harness's probe interval (see newCluster): on its
// manual clock it sets only the length of a tick.
const fastProbe = 25 * time.Millisecond

// fastRepl returns replication options tuned for the harness: a peer is
// down after 3 straight failed probes, each bounded by 250ms.
func fastRepl() *replOptions {
	return &replOptions{
		Factor:        2,
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
			r := call(nil, tc.client, "GET", tc.url(i)+"/v1/cluster/info?topic="+name, nil, &info)
			if r.err == nil && r.code == http.StatusOK && info.Topic != nil &&
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
		r := call(nil, tc.client, "GET", tc.url(i)+"/v1/healthz", nil, &hr)
		if r.err != nil || r.code != http.StatusOK || hr.Replication == nil {
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
// no peer changes state. The tick's resync reads the recorded follower
// state, so an idle topic is never dropped from it.
func TestResyncConvergesIdleTopics(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster harness is not short")
	}
	gate := &gateTransport{prefix: "/v1/replica/"}
	tc := newCluster(t, 2, serverOptions{
		journal: store.Options{Every: 4, MaxBytes: 8 << 20},
		repl:    fastRepl(),
		peer:    fastPeer(gate),
	}, true)
	names := tc.ownedBy(0, 320)
	for _, name := range names {
		tc.retryJSON("POST", tc.url(0)+"/v1/topics", jtCreateReq(name), nil, http.StatusCreated)
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
	tc.retryJSON("POST", tc.url(p)+"/v1/topics", jtCreateReq(name), nil, http.StatusCreated)
	for day := 1; day <= 3; day++ {
		tc.retryJSON("POST", tc.url(p)+"/v1/topics/"+name+"/batches", jtBatch(day), nil, http.StatusOK)
	}
	tc.awaitFollowersSynced(p, []string{name}, 40)
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
	tc := newCluster(t, 3, serverOptions{
		journal: store.Options{Every: 4, MaxBytes: 8 << 20},
		repl:    fastRepl(),
		peer:    fastPeer(nil),
	}, true)
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
	var ans reply
	if !eventually(func() bool {
		data, err := os.ReadFile(filepath.Join(tc.shards[p].dir, name+".moved"))
		if err != nil || json.Unmarshal(data, &ts) != nil || ts.Target != tc.url(b) {
			return false
		}
		ans = call(nil, tc.noRedirect, "GET", tc.url(p)+"/v1/topics/"+name, nil, nil)
		return ans.err == nil && ans.code == http.StatusTemporaryRedirect && ans.shard == tc.url(b)
	}) {
		t.Fatalf("restarted P: tombstone %+v, GET answered %v shard=%q; want fenced and 307 → %s", ts, ans, ans.shard, tc.url(b))
	}
}
