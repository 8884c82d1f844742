package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"strings"
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

func degradeCreateReq(name string) createTopicRequest {
	return createTopicRequest{
		Name:    name,
		Users:   []string{"u0", "u1"},
		Options: topicOptions{MaxIter: 2, Seed: 7, MinDF: 1},
	}
}

func degradeBatch(day int) batchRequest {
	return batchRequest{Time: day, Tweets: []tweetSpec{
		{Tokens: []string{"w1", "w2"}, User: 0},
		{Tokens: []string{"w2", "w3"}, User: 1},
	}}
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
	hs := front(t, s)
	client := hs.Client()

	for _, name := range []string{"storm-a", "storm-b"} {
		if r := call(t, client, "POST", hs.URL+"/v1/topics", degradeCreateReq(name), nil); r.code != http.StatusCreated {
			t.Fatalf("create %s: %d %s", name, r.code, r.ec)
		}
		if r := call(t, client, "POST", hs.URL+"/v1/topics/"+name+"/batches", degradeBatch(1), nil); r.code != http.StatusOK {
			t.Fatalf("batch %s: %d %s", name, r.code, r.ec)
		}
	}

	// The disk fills. The first failing batch per topic is refused by its
	// append; ENOSPC degrades the topic immediately.
	script.SetBudget(0)
	for _, name := range []string{"storm-a", "storm-b"} {
		if r := call(t, client, "POST", hs.URL+"/v1/topics/"+name+"/batches", degradeBatch(2), nil); r.code != http.StatusServiceUnavailable || r.ec != codeStorageDegraded || r.hdr.Get("Retry-After") != "1" {
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
	if r := call(t, client, "POST", hs.URL+"/v1/topics", degradeCreateReq("storm-c"), nil); r.code != http.StatusServiceUnavailable || r.ec != codeStorageReadonly {
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
		if r := call(t, client, "POST", hs.URL+"/v1/topics/"+name+"/batches", degradeBatch(2), nil); r.code != http.StatusOK {
			t.Fatalf("batch %s after recovery: %d %s", name, r.code, r.ec)
		}
	}
	if r := call(t, client, "POST", hs.URL+"/v1/topics", degradeCreateReq("storm-c"), nil); r.code != http.StatusCreated {
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

// TestFailedAppendLeavesTopicUntouched: a batch whose journal append
// fails — at any failpoint of the batch path — answers 503
// storage_degraded and leaves the topic exactly as it was: nothing is
// read back from disk, reads keep serving batch 1's snapshot bytes and
// ETag, no read is refused, and once the disk heals the same batch
// retries onto it as batch 2. (A failed truncate after the failed append
// also loses the journal, so that topic waits read-only for the write
// probe.)
func TestFailedAppendLeavesTopicUntouched(t *testing.T) {
	inject := errors.New("injected journal failure")
	// The create writes no frame: batch 1 is each append site's first hit.
	syncFails := fault.Rule{Site: "journal.append.sync", Hit: 2, Err: inject}
	for _, tc := range []struct {
		label string
		rules []fault.Rule
	}{
		{"append.write", []fault.Rule{{Site: "journal.append.write", Hit: 2, Err: inject}}},
		{"append.write short", []fault.Rule{{Site: "journal.append.write", Hit: 2, Err: inject, Short: 5}}},
		{"append.sync", []fault.Rule{syncFails}},
		{"truncate.truncate", []fault.Rule{syncFails, {Site: "journal.truncate.truncate", Err: inject}}},
		{"truncate.sync", []fault.Rule{syncFails, {Site: "journal.truncate.sync", Err: inject}}},
	} {
		t.Run(tc.label, func(t *testing.T) {
			script := fault.NewScript(tc.rules...)
			s := serve(t, t.TempDir(), serverOptions{journal: store.Options{Every: 100}, fs: script, probeEvery: 20 * time.Millisecond}, true)
			hs := front(t, s)
			const name = "untouched"
			topic := "/v1/topics/" + name
			if rec := call(t, s, "POST", "/v1/topics", degradeCreateReq(name), nil); rec.code != http.StatusCreated {
				t.Fatalf("create: %d %s", rec.code, rec.body)
			}
			if rec := call(t, s, "POST", topic+"/batches", degradeBatch(1), nil); rec.code != http.StatusOK {
				t.Fatalf("batch 1: %d %s", rec.code, rec.body)
			}
			before := captureTopic(t, s, name)
			etag := call(t, s, "GET", topic+"/users/0", nil, nil).etag

			if rec := call(t, s, "POST", topic+"/batches", degradeBatch(2), nil); rec.code != http.StatusServiceUnavailable || !strings.Contains(string(rec.body), codeStorageDegraded) || rec.hdr.Get("Retry-After") != "1" {
				t.Fatalf("batch 2: %d %s (Retry-After %q), want 503 %s (Retry-After 1)", rec.code, rec.body, rec.hdr.Get("Retry-After"), codeStorageDegraded)
			}
			if n := script.Hits("persist.snap.read"); n != 0 {
				t.Fatalf("the refused batch read the snapshot back %d times", n)
			}
			if got := captureTopic(t, s, name); got.batches != 1 || !bytes.Equal(got.snap, before.snap) {
				t.Fatalf("after the refused batch: %d batches, snapshot equal = %v; want batch 1's bytes",
					got.batches, bytes.Equal(got.snap, before.snap))
			}
			for _, path := range []string{"", "/users/0", "/features", "/snapshot"} {
				if rec := call(t, s, "GET", topic+path, nil, nil); rec.code != http.StatusOK {
					t.Fatalf("read %s after the refused batch: %d %s, want 200", path, rec.code, rec.body)
				}
			}
			if got := call(t, s, "GET", topic+"/users/0", nil, nil).etag; got != etag {
				t.Fatalf("ETag after the refused batch %q, want batch 1's %q", got, etag)
			}

			script.ClearRules()
			awaitStorageState(t, hs.Client(), hs.URL, "ok")
			if rec := call(t, s, "POST", topic+"/batches", degradeBatch(2), nil); rec.code != http.StatusOK {
				t.Fatalf("retry of batch 2: %d %s", rec.code, rec.body)
			}
			if got := captureTopic(t, s, name); got.batches != 2 || script.Hits("persist.snap.read") != 0 {
				t.Fatalf("after the retry: %d batches, %d snapshot reads; want 2, 0", got.batches, script.Hits("persist.snap.read"))
			}
		})
	}
}

// TestCompactionFailureKeepsAck: a batch whose frame is fsynced in the
// journal is acked even when the compaction that follows it fails — an
// error there would make the client retry a batch the daemon already
// holds, into 409 stale_timestamp. The failure is counted, a restart
// recovers the batch from the journal, and the next batch compacts.
func TestCompactionFailureKeepsAck(t *testing.T) {
	const name = "compact"
	opts := store.Options{Every: 3}
	feed := func(s *server, from, to int) {
		t.Helper()
		for day := from; day <= to; day++ {
			if rec := call(t, s, "POST", "/v1/topics/"+name+"/batches", degradeBatch(day), nil); rec.code != http.StatusOK {
				t.Fatalf("batch %d: %d %s", day, rec.code, rec.body)
			}
		}
	}

	ctrl := serve(t, t.TempDir(), serverOptions{journal: opts}, true)
	call(t, ctrl, "POST", "/v1/topics", degradeCreateReq(name), nil)
	feed(ctrl, 1, 3)
	want := captureTopic(t, ctrl, name)

	// The create's save is the first rename; batch 3's compaction the second.
	script := fault.NewScript(fault.Rule{Site: "persist.snap.rename", Hit: 2, Err: errors.New("injected rename failure")})
	dir := t.TempDir()
	s := serve(t, dir, serverOptions{journal: opts, fs: script}, true)
	hs := front(t, s)
	call(t, s, "POST", "/v1/topics", degradeCreateReq(name), nil)
	feed(s, 1, 3)
	var hr healthResponse
	if r := call(nil, hs.Client(), "GET", hs.URL+"/v1/healthz", nil, &hr); r.err != nil || r.code != http.StatusOK {
		t.Fatalf("healthz: %d %v", r.code, r.err)
	}
	if hr.Storage.Failures != 1 || hr.Storage.State != "ok" {
		t.Fatalf("storage after the failed compaction: %+v, want 1 failure and state ok", hr.Storage)
	}

	// A crash right now loses nothing: the journal holds all three batches.
	crashDir := t.TempDir()
	if err := os.CopyFS(crashDir, os.DirFS(dir)); err != nil {
		t.Fatal(err)
	}
	s2 := serve(t, crashDir, serverOptions{journal: opts}, true)
	if got := captureTopic(t, s2, name); got.batches != 3 || !bytes.Equal(got.snap, want.snap) {
		t.Fatalf("restart recovered %d batches, snapshot equal to control = %v; want 3, true",
			got.batches, bytes.Equal(got.snap, want.snap))
	}

	// The compaction is retried by the next batch.
	feed(s, 4, 4)
	j, err := journal.Load(fault.OS, filepath.Join(dir, name+".journal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(j.Records) != 0 {
		t.Fatalf("journal holds %d records after batch 4, want a compacted, empty one", len(j.Records))
	}
	if r := call(nil, hs.Client(), "GET", hs.URL+"/v1/healthz", nil, &hr); r.err != nil || r.code != http.StatusOK {
		t.Fatalf("healthz: %d %v", r.code, r.err)
	}
	if hr.Status != "ok" || hr.Storage.Failures != 1 {
		t.Fatalf("healthz after the retried compaction: status %q, storage %+v", hr.Status, hr.Storage)
	}
}

// TestVocabSaveFailureRollsBack: a vocabulary warm-up whose snapshot save
// fails answers 500 storage_error — and must leave memory where disk is.
// If the folded documents stayed in memory, the next batch would be
// journaled against a vocabulary the snapshot does not hold: acked 200,
// then lost on restart when replay cannot reproduce its fingerprint.
// Whatever the daemon answers, a restart must serve what it served.
func TestVocabSaveFailureRollsBack(t *testing.T) {
	const name = "vocab"
	opts := store.Options{Every: 100}
	warm := vocabRequest{Docs: [][]string{{"w1", "w9"}, {"w9", "w8", "w7"}}}
	for _, tc := range []struct {
		label     string
		rules     []fault.Rule
		vocabCode int
	}{
		{"control", nil, http.StatusOK},
		// The create's save is the first rename; the warm-up's the second.
		{"save fails", []fault.Rule{{Site: "persist.snap.rename", Hit: 2, Err: errors.New("injected rename failure")}},
			http.StatusInternalServerError},
		// The warm-up's rename lands; the journal restart after it fails
		// (the create's restart was the first journal.create.open), so disk
		// already holds the warmed snapshot.
		{"restart fails after the rename", []fault.Rule{
			{Site: "journal.rotate.truncate", Hit: 1, Err: errors.New("injected rotate failure")},
			{Site: "journal.create.open", Hit: 2, Err: errors.New("injected create failure")}},
			http.StatusInternalServerError},
		// The warm-up's rename lands and the directory fsync after it fails
		// (the create synced the directory twice): the journal extends a
		// snapshot disk may no longer hold, so it may take no batch.
		{"directory fsync fails after the rename", []fault.Rule{
			{Site: "persist.dir.sync", Hit: 3, Err: errors.New("injected dir sync failure")}},
			http.StatusInternalServerError},
	} {
		t.Run(tc.label, func(t *testing.T) {
			dir := t.TempDir()
			s := serve(t, dir, serverOptions{journal: opts, fs: fault.NewScript(tc.rules...), probeEvery: time.Hour}, true)
			if rec := call(t, s, "POST", "/v1/topics", degradeCreateReq(name), nil); rec.code != http.StatusCreated {
				t.Fatalf("create: %d %s", rec.code, rec.body)
			}
			rec := call(t, s, "POST", "/v1/topics/"+name+"/vocab", warm, nil)
			if rec.code != tc.vocabCode || (rec.code != http.StatusOK && !strings.Contains(string(rec.body), codeStorage)) {
				t.Fatalf("warm-up: %d %s, want %d", rec.code, rec.body, tc.vocabCode)
			}
			rec = call(t, s, "POST", "/v1/topics/"+name+"/batches", degradeBatch(1), nil)
			t.Logf("batch 1 after the warm-up: %d", rec.code)
			live := captureTopic(t, s, name)

			restartDir := t.TempDir()
			if err := os.CopyFS(restartDir, os.DirFS(dir)); err != nil {
				t.Fatal(err)
			}
			s2 := serve(t, restartDir, serverOptions{journal: opts}, true)
			got := captureTopic(t, s2, name)
			if got == nil {
				t.Fatal("restart does not serve the topic")
			}
			if got.batches != live.batches || !bytes.Equal(got.snap, live.snap) || s2.store.Quarantined() != 0 {
				t.Fatalf("restart serves %d batches (snapshot equal = %v, %d files quarantined); the live daemon served %d — want the same bytes, nothing quarantined",
					got.batches, bytes.Equal(got.snap, live.snap), s2.store.Quarantined(), live.batches)
			}
		})
	}
}

// TestJournalRecreateFailureDegrades: when a compaction's journal rotate
// fails and the journal cannot be re-created either, the topic has no way
// left to commit a batch. It must say so — read-only through the storage
// monitor, 503 storage_degraded — and come back through the write probe,
// not quietly take batches some other way.
func TestJournalRecreateFailureDegrades(t *testing.T) {
	const name = "nojournal"
	script := fault.NewScript()
	dir := t.TempDir()
	s := serve(t, dir, serverOptions{journal: store.Options{Every: 2}, fs: script, probeEvery: 20 * time.Millisecond}, true)
	hs := front(t, s)
	client := hs.Client()
	url := hs.URL + "/v1/topics/" + name + "/batches"
	if r := call(t, client, "POST", hs.URL+"/v1/topics", degradeCreateReq(name), nil); r.code != http.StatusCreated {
		t.Fatalf("create: %d %s", r.code, r.ec)
	}
	if r := call(t, client, "POST", url, degradeBatch(1), nil); r.code != http.StatusOK {
		t.Fatalf("batch 1: %d %s", r.code, r.ec)
	}

	inject := errors.New("injected journal failure")
	script.AddRule(fault.Rule{Site: "journal.rotate.truncate", Err: inject})
	script.AddRule(fault.Rule{Site: "journal.create.open", Err: inject})
	// Batch 2 is a compaction point. Its frame is durable before the
	// rotate fails, so it is acked.
	if r := call(t, client, "POST", url, degradeBatch(2), nil); r.code != http.StatusOK {
		t.Fatalf("batch 2: %d %s", r.code, r.ec)
	}
	r := call(t, client, "POST", url, []byte(`{"time":3,"tweets":[{"tokens":["w1"],"user":0}]}`), nil, "Content-Type", mediaTypeJSON)
	if r.code != http.StatusServiceUnavailable || r.ec != codeStorageDegraded || r.hdr.Get("Retry-After") == "" {
		t.Fatalf("batch on a topic without a journal: %d %s (Retry-After %q), want 503 %s",
			r.code, r.ec, r.hdr.Get("Retry-After"), codeStorageDegraded)
	}
	hr := awaitStorageState(t, client, hs.URL, "degraded")
	if len(hr.Degraded) != 1 || hr.Degraded[0] != name {
		t.Fatalf("healthz degraded = %v, want [%s]", hr.Degraded, name)
	}

	script.ClearRules()
	awaitStorageState(t, client, hs.URL, "ok")
	if r := call(t, client, "POST", url, degradeBatch(3), nil); r.code != http.StatusOK {
		t.Fatalf("batch 3 after recovery: %d %s", r.code, r.ec)
	}
	s2 := serve(t, dir, serverOptions{}, true)
	if got, want := captureTopic(t, s2, name), captureTopic(t, s, name); got.batches != 3 || !bytes.Equal(got.snap, want.snap) {
		t.Fatalf("restart serves %d batches, snapshot equal = %v; want 3, true", got.batches, bytes.Equal(got.snap, want.snap))
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
