package main

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
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

// TestDiskDegradedModeENOSPCStorm is the degraded-mode acceptance path,
// on the manual clock: a full disk makes each topic whose batch it refuses
// read-only, and the next tick's failed write probe the whole shard;
// reads keep answering (marked) from the last durable state. Once the
// degraded topics are deleted and space frees, one tick clears the switch
// — the storage step's to clear with no topic degraded — without a
// restart.
func TestDiskDegradedModeENOSPCStorm(t *testing.T) {
	script, clock := fault.NewScript(), fault.NewClock()
	dir := t.TempDir()
	s := serve(t, dir, serverOptions{journal: store.Options{Every: 100}, fs: script, sleep: clock.Sleep}, true)
	s.start()
	tick := func() {
		t.Helper()
		if !clock.WaitSleepers(1, eventuallyWithin) {
			t.Fatal("the tick never parked on the clock")
		}
		clock.Advance(s.probeEvery)
		if !clock.WaitSleepers(1, eventuallyWithin) {
			t.Fatal("the tick never parked again")
		}
	}
	health := func() (hr healthResponse) {
		call(t, s, "GET", "/v1/healthz", nil, &hr)
		return hr
	}
	refused := func(what string, r reply) {
		t.Helper()
		if r.code != http.StatusServiceUnavailable || r.ec != codeStorageDegraded || r.hdr.Get("Retry-After") != "1" {
			t.Fatalf("%s: %d %s (Retry-After %q), want 503 %s (Retry-After 1)", what, r.code, r.ec, r.hdr.Get("Retry-After"), codeStorageDegraded)
		}
	}
	names := []string{"storm-a", "storm-b", "storm-x"}
	degraded := names[:2]
	for _, name := range names {
		if r := call(t, s, "POST", "/v1/topics", jtCreateReq(name), nil); r.code != http.StatusCreated {
			t.Fatalf("create %s: %d %s", name, r.code, r.ec)
		}
		if r := call(t, s, "POST", "/v1/topics/"+name+"/batches", jtBatch(1), nil); r.code != http.StatusOK {
			t.Fatalf("batch %s: %d %s", name, r.code, r.ec)
		}
	}

	// The disk fills: a batch's append fails, and its topic turns read-only.
	script.SetBudget(0)
	for _, name := range degraded {
		refused("batch "+name+" on a full disk", call(t, s, "POST", "/v1/topics/"+name+"/batches", jtBatch(2), nil))
	}
	// Reads still answer — from the last durable state, marked degraded.
	var sum topicSummary
	if r := call(t, s, "GET", "/v1/topics/storm-a", nil, &sum); r.code != http.StatusOK || r.hdr.Get(degradedHeader) != "storage" || sum.Batches != 1 {
		t.Fatalf("degraded read: %d, marker %q, %d batches; want 200, %q, the 1 durable batch", r.code, r.hdr.Get(degradedHeader), sum.Batches, "storage")
	}

	// A tick's write probe fails: the whole shard is read-only, and every
	// write answers 503 before it reaches the disk.
	tick()
	if hr := health(); hr.Status != "degraded" || hr.Storage.State != "readonly" || !slices.Equal(hr.Degraded, degraded) || !slices.Equal(hr.Storage.Degraded, degraded) {
		t.Fatalf("healthz after a failed probe: status %q, storage %+v, degraded %v; want degraded, readonly, %v in both lists", hr.Status, hr.Storage, hr.Degraded, degraded)
	}
	refused("create on a read-only shard", call(t, s, "POST", "/v1/topics", jtCreateReq("storm-c"), nil))
	refused("batch storm-x on a read-only shard", call(t, s, "POST", "/v1/topics/storm-x/batches", jtBatch(2), nil))

	// The degraded topics go and space frees; the switch waits for a tick.
	for _, name := range degraded {
		if r := call(t, s, "DELETE", "/v1/topics/"+name, nil, nil); r.code != http.StatusNoContent {
			t.Fatalf("delete %s: %d %s", name, r.code, r.ec)
		}
	}
	script.SetBudget(-1)
	if got := health().Storage.State; got != "readonly" {
		t.Fatalf("storage %q with the disk freed, before a tick, want readonly", got)
	}
	tick()
	if hr := health(); hr.Status != "ok" || hr.Storage.State != "ok" {
		t.Fatalf("healthz one tick after the disk freed: status %q, storage %q, want ok", hr.Status, hr.Storage.State)
	}
	if r := call(t, s, "POST", "/v1/topics/storm-x/batches", jtBatch(2), nil); r.code != http.StatusOK {
		t.Fatalf("batch storm-x after recovery: %d %s", r.code, r.ec)
	}
	if r := call(t, s, "POST", "/v1/topics", jtCreateReq("storm-c"), nil); r.code != http.StatusCreated {
		t.Fatalf("create after recovery: %d %s, want 201", r.code, r.ec)
	}

	// What the shard serves is exactly what a restart would serve.
	s2 := serve(t, dir, serverOptions{journal: store.Options{Every: 100}}, true)
	for _, name := range []string{"storm-x", "storm-c"} {
		b1, d1 := s.topics[name].eng.StreamPos()
		b2, d2 := s2.topics[name].eng.StreamPos()
		if b1 != b2 || d1 != d2 {
			t.Fatalf("%s: position (%d,%d) != restart position (%d,%d)", name, b1, d1, b2, d2)
		}
	}
	if _, ok := s2.topics["storm-a"]; ok {
		t.Fatal("a restart serves the deleted storm-a")
	}
}

// TestRetryAfterRoundsUp: a 503's Retry-After is the probe interval in
// whole seconds rounded up, at least 1, so a client that honours it never
// retries before the next tick can have run.
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

// TestFailStampsRetryAfterOnEvery503: the retry hint goes by status, not
// by code — every 503 (a parked hand-off's handoff_pending as much as a
// storage refusal) carries Retry-After, and no other status does.
func TestFailStampsRetryAfterOnEvery503(t *testing.T) {
	s := &server{probeEvery: 1500 * time.Millisecond}
	for _, tc := range []struct {
		status int
		code   string
	}{
		{http.StatusServiceUnavailable, codeStorageDegraded},
		{http.StatusServiceUnavailable, codeHandoffPending},
		{http.StatusInternalServerError, codeStorage},
		{http.StatusConflict, codeEpochMismatch},
		{http.StatusBadRequest, codeInvalidRequest},
	} {
		w := httptest.NewRecorder()
		s.fail(w, errf(tc.status, tc.code, "refused"))
		want := ""
		if tc.status == http.StatusServiceUnavailable {
			want = "2"
		}
		if got := w.Header().Get("Retry-After"); w.Code != tc.status || got != want {
			t.Errorf("%d %s: answered %d with Retry-After %q, want %d with %q", tc.status, tc.code, w.Code, got, tc.status, want)
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
