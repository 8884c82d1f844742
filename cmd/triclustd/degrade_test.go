package main

import (
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"triclust/internal/fault"
	"triclust/internal/journal"
	"triclust/internal/store"
)

// sabotageJournal makes the next journal append fail the way a dead disk
// would: the write errors, and so does the truncate that would tidy up
// after it, so the topic loses its journal.
func sabotageJournal(script *fault.Script) {
	dead := errors.New("injected: journal device gone")
	script.AddRule(fault.Rule{Site: "journal.append.write", Hit: script.Hits("journal.append.write") + 1, Err: dead})
	script.AddRule(fault.Rule{Site: "journal.truncate.truncate", Hit: script.Hits("journal.truncate.truncate") + 1, Err: dead})
}

// awaitStorageState polls healthz until the storage section reaches the
// wanted state.
func awaitStorageState(t *testing.T, client *http.Client, base, want string) healthResponse {
	t.Helper()
	var hr healthResponse
	if !eventually(func() bool {
		hr = healthResponse{}
		r := call(nil, client, "GET", base+"/v1/healthz", nil, &hr)
		return r.err == nil && r.code == http.StatusOK && hr.Storage != nil && hr.Storage.State == want
	}) {
		t.Fatalf("storage never reached state %q (last: %+v)", want, hr.Storage)
	}
	return hr
}

// TestDiskDegradedModeENOSPCStorm is the degraded-mode acceptance path:
// a full disk flips first the failing topics, then the whole shard, into
// read-only; reads keep answering (marked) from the last durable state;
// freeing space lets the write probe recover everything without a
// restart.
func TestDiskDegradedModeENOSPCStorm(t *testing.T) {
	script := fault.NewScript()
	dir := t.TempDir()
	s := serve(t, dir, serverOptions{journal: store.Options{Every: 100}, fs: script, probeEvery: 20 * time.Millisecond}, true)
	s.start()
	hs := front(t, s)
	client := hs.Client()

	for _, name := range []string{"storm-a", "storm-b"} {
		if r := call(t, client, "POST", hs.URL+"/v1/topics", jtCreateReq(name), nil); r.code != http.StatusCreated {
			t.Fatalf("create %s: %d %s", name, r.code, r.ec)
		}
		if r := call(t, client, "POST", hs.URL+"/v1/topics/"+name+"/batches", jtBatch(1), nil); r.code != http.StatusOK {
			t.Fatalf("batch %s: %d %s", name, r.code, r.ec)
		}
	}

	// The disk fills. The first failing batch per topic is refused by its
	// append; ENOSPC degrades the topic immediately.
	script.SetBudget(0)
	for _, name := range []string{"storm-a", "storm-b"} {
		if r := call(t, client, "POST", hs.URL+"/v1/topics/"+name+"/batches", jtBatch(2), nil); r.code != http.StatusServiceUnavailable || r.ec != codeStorageDegraded || r.hdr.Get("Retry-After") != "1" {
			t.Fatalf("batch %s on full disk: %d %s (Retry-After %q), want 503 %s (Retry-After 1)", name, r.code, r.ec, r.hdr.Get("Retry-After"), codeStorageDegraded)
		}
	}

	// Both topics degraded >= ShardAfter: the shard is read-only. Writes
	// fail fast with the shard-level code and a Retry-After hint — no
	// solve, no journal attempt.
	r := call(t, client, "POST", hs.URL+"/v1/topics/storm-a/batches",
		[]byte(`{"time":3,"tweets":[{"tokens":["w1"],"user":0}]}`), nil, "Content-Type", mediaTypeJSON)
	if r.code != http.StatusServiceUnavailable || r.ec != codeStorageReadonly {
		t.Fatalf("write on read-only shard: %d %s, want 503 %s", r.code, r.ec, codeStorageReadonly)
	}
	if r.hdr.Get("Retry-After") == "" {
		t.Fatal("storage refusal carries no Retry-After")
	}
	if r := call(t, client, "POST", hs.URL+"/v1/topics", jtCreateReq("storm-c"), nil); r.code != http.StatusServiceUnavailable || r.ec != codeStorageReadonly {
		t.Fatalf("create on read-only shard: %d %s, want 503 %s", r.code, r.ec, codeStorageReadonly)
	}

	// Reads still answer — from the last durable state, marked degraded.
	var sum topicSummary
	r = call(t, client, "GET", hs.URL+"/v1/topics/storm-a", nil, &sum)
	if r.code != http.StatusOK {
		t.Fatalf("degraded read: %d, want 200", r.code)
	}
	if got := r.hdr.Get(degradedHeader); got != "storage" {
		t.Fatalf("degraded read marker = %q, want %q", got, "storage")
	}
	if sum.Batches != 1 {
		t.Fatalf("degraded read serves %d batches, want the 1 durable one", sum.Batches)
	}

	hr := awaitStorageState(t, client, hs.URL, "readonly")
	if hr.Status != "degraded" {
		t.Fatalf("healthz status %q, want degraded", hr.Status)
	}
	if len(hr.Storage.Degraded) != 2 {
		t.Fatalf("degraded topics %v, want both", hr.Storage.Degraded)
	}

	// Space frees: the write probe notices and proves both topics back,
	// no restart, no operator action.
	script.SetBudget(-1)
	hr = awaitStorageState(t, client, hs.URL, "ok")
	if hr.Storage.Recoveries < 2 {
		t.Fatalf("recoveries = %d, want >= 2", hr.Storage.Recoveries)
	}
	for _, name := range []string{"storm-a", "storm-b"} {
		if r := call(t, client, "POST", hs.URL+"/v1/topics/"+name+"/batches", jtBatch(2), nil); r.code != http.StatusOK {
			t.Fatalf("batch %s after recovery: %d %s", name, r.code, r.ec)
		}
	}
	if r := call(t, client, "POST", hs.URL+"/v1/topics", jtCreateReq("storm-c"), nil); r.code != http.StatusCreated {
		t.Fatalf("create after recovery: %d", r.code)
	}

	// The recovered state must be exactly what a restart would serve.
	s2 := serve(t, dir, serverOptions{journal: store.Options{Every: 100}}, true)
	for _, name := range []string{"storm-a", "storm-b"} {
		b1, d1 := s.topics[name].eng.StreamPos()
		b2, d2 := s2.topics[name].eng.StreamPos()
		if b1 != b2 || d1 != d2 {
			t.Fatalf("%s: recovered position (%d,%d) != restart position (%d,%d)", name, b1, d1, b2, d2)
		}
	}
}

// TestShardSwitchClearsWithoutDegradedTopics: the shard-wide read-only
// switch is the storage step's to clear even once no topic is degraded.
// Two topics degrade on a full disk, which makes the shard read-only; both
// are deleted and the disk is freed; one probe interval later the shard
// reports ok storage and takes a create.
func TestShardSwitchClearsWithoutDegradedTopics(t *testing.T) {
	script := fault.NewScript()
	clock := fault.NewClock()
	s := serve(t, t.TempDir(), serverOptions{journal: store.Options{Every: 100}, fs: script, sleep: clock.Sleep}, true)
	s.start()
	names := []string{"switch-a", "switch-b"}
	for _, name := range names {
		if r := call(t, s, "POST", "/v1/topics", jtCreateReq(name), nil); r.code != http.StatusCreated {
			t.Fatalf("create %s: %d %s", name, r.code, r.ec)
		}
	}
	script.SetBudget(0)
	for _, name := range names {
		if r := call(t, s, "POST", "/v1/topics/"+name+"/batches", jtBatch(1), nil); r.code != http.StatusServiceUnavailable || r.ec != codeStorageDegraded {
			t.Fatalf("batch %s on a full disk: %d %s, want 503 %s", name, r.code, r.ec, codeStorageDegraded)
		}
	}
	for _, name := range names {
		if r := call(t, s, "DELETE", "/v1/topics/"+name, nil, nil); r.code != http.StatusNoContent {
			t.Fatalf("delete %s: %d %s", name, r.code, r.ec)
		}
	}
	script.SetBudget(-1)
	storage := func() string {
		var hr healthResponse
		call(t, s, "GET", "/v1/healthz", nil, &hr)
		return hr.Storage.State
	}
	if got := storage(); got != "readonly" {
		t.Fatalf("storage %q with both degraded topics deleted, before a probe interval, want readonly", got)
	}
	if !clock.WaitSleepers(1, eventuallyWithin) {
		t.Fatal("no loop parked on the clock")
	}
	clock.Advance(s.probeEvery)
	if !eventually(func() bool { return storage() == "ok" }) {
		t.Fatalf("storage %q one probe interval after the disk freed, want ok", storage())
	}
	if r := call(t, s, "POST", "/v1/topics", jtCreateReq("switch-c"), nil); r.code != http.StatusCreated {
		t.Fatalf("create after the switch cleared: %d %s, want 201", r.code, r.ec)
	}
}

// TestRetryAfterRoundsUp: a storage refusal's Retry-After is the probe
// interval in whole seconds rounded up, at least 1, so a client that
// honours it never retries before the next write probe can have run.
func TestRetryAfterRoundsUp(t *testing.T) {
	for _, tc := range []struct {
		every time.Duration
		want  string
	}{
		{1500 * time.Millisecond, "2"},
		{25 * time.Millisecond, "1"},
		{5 * time.Second, "5"},
	} {
		if got := retrySeconds(tc.every); got != tc.want {
			t.Errorf("retrySeconds(%v) = %s, want %s", tc.every, got, tc.want)
		}
	}
}

// replicaPos reads a follower's durable replica position from its data
// directory: the
// base snapshot's fingerprint advanced by the fsynced tail frames.
func replicaPos(t *testing.T, dir, name string) (int, uint64) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, name+".rmeta"))
	if err != nil {
		t.Fatalf("replica meta %s: %v", name, err)
	}
	var meta store.ReplicaMeta
	if err := json.Unmarshal(data, &meta); err != nil {
		t.Fatalf("replica meta %s: %v", name, err)
	}
	batches, draws := meta.Batches, meta.RandDraws
	j, err := journal.Load(fault.OS, filepath.Join(dir, name+".rjournal"))
	if err != nil {
		t.Fatalf("replica journal %s: %v", name, err)
	}
	for _, rec := range j.Records {
		batches, draws = rec.Batches, rec.RandDraws
	}
	return batches, draws
}
