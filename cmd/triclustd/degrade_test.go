package main

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
	"testing"
	"time"

	"triclust/internal/fault"
	"triclust/internal/journal"
	"triclust/internal/store"
)

// faultServer builds one daemon whose durable writes go through the
// given fault.FS, with a fast storage probe so degraded-mode tests
// converge in milliseconds.
func faultServer(t *testing.T, fs fault.FS, jopts store.Options, sopts storageOptions) (*server, *httptest.Server) {
	t.Helper()
	return faultServerAt(t, t.TempDir(), fs, jopts, sopts)
}

// faultServerAt is faultServer over a data directory the test keeps, to
// inspect or reopen it afterwards.
func faultServerAt(t *testing.T, dir string, fs fault.FS, jopts store.Options, sopts storageOptions) (*server, *httptest.Server) {
	t.Helper()
	s, err := newServer(dir, serverOptions{journal: jopts, fs: fs, storage: sopts}, t.Logf)
	if err != nil {
		t.Fatalf("newServer: %v", err)
	}
	t.Cleanup(s.Close)
	hs := httptest.NewServer(s)
	t.Cleanup(hs.Close)
	return s, hs
}

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
		code, err := doJSON(client, "GET", base+"/v1/healthz", nil, &hr)
		return err == nil && code == http.StatusOK && hr.Storage != nil && hr.Storage.State == want
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
	s, hs := faultServerAt(t, dir, script, store.Options{Every: 100},
		storageOptions{ShardAfter: 2, ProbeInterval: 20 * time.Millisecond})
	client := hs.Client()

	for _, name := range []string{"storm-a", "storm-b"} {
		if code, ec := errCode(t, client, "POST", hs.URL+"/v1/topics", degradeCreateReq(name)); code != http.StatusCreated {
			t.Fatalf("create %s: %d %s", name, code, ec)
		}
		if code, ec := errCode(t, client, "POST", hs.URL+"/v1/topics/"+name+"/batches", degradeBatch(1)); code != http.StatusOK {
			t.Fatalf("batch %s: %d %s", name, code, ec)
		}
	}

	// The disk fills. The first failing batch per topic reports the
	// append failure itself; ENOSPC degrades the topic immediately.
	script.SetBudget(0)
	for _, name := range []string{"storm-a", "storm-b"} {
		if code, ec := errCode(t, client, "POST", hs.URL+"/v1/topics/"+name+"/batches", degradeBatch(2)); code != http.StatusServiceUnavailable || ec != codeJournalWriteFailed {
			t.Fatalf("batch %s on full disk: %d %s, want 503 %s", name, code, ec, codeJournalWriteFailed)
		}
	}

	// Both topics degraded >= ShardAfter: the shard is read-only. Writes
	// fail fast with the shard-level code and a Retry-After hint — no
	// solve, no journal attempt.
	resp, err := client.Post(hs.URL+"/v1/topics/storm-a/batches", "application/json",
		strings.NewReader(`{"time":3,"tweets":[{"tokens":["w1"],"user":0}]}`))
	if err != nil {
		t.Fatal(err)
	}
	var eb errorBody
	decodeBody(t, resp, &eb)
	if resp.StatusCode != http.StatusServiceUnavailable || eb.Error.Code != codeStorageReadonly {
		t.Fatalf("write on read-only shard: %d %s, want 503 %s", resp.StatusCode, eb.Error.Code, codeStorageReadonly)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("storage refusal carries no Retry-After")
	}
	if code, ec := errCode(t, client, "POST", hs.URL+"/v1/topics", degradeCreateReq("storm-c")); code != http.StatusServiceUnavailable || ec != codeStorageReadonly {
		t.Fatalf("create on read-only shard: %d %s, want 503 %s", code, ec, codeStorageReadonly)
	}

	// Reads still answer — from the last durable state, marked degraded.
	rresp, err := client.Get(hs.URL + "/v1/topics/storm-a")
	if err != nil {
		t.Fatal(err)
	}
	var sum topicSummary
	decodeBody(t, rresp, &sum)
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("degraded read: %d, want 200", rresp.StatusCode)
	}
	if got := rresp.Header.Get(degradedHeader); got != "storage" {
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
		if code, ec := errCode(t, client, "POST", hs.URL+"/v1/topics/"+name+"/batches", degradeBatch(2)); code != http.StatusOK {
			t.Fatalf("batch %s after recovery: %d %s", name, code, ec)
		}
	}
	if code, _ := errCode(t, client, "POST", hs.URL+"/v1/topics", degradeCreateReq("storm-c")); code != http.StatusCreated {
		t.Fatalf("create after recovery: %d", code)
	}

	// The recovered state must be exactly what a restart would serve.
	s2, err := newServer(dir, serverOptions{journal: store.Options{Every: 100}}, t.Logf)
	if err != nil {
		t.Fatalf("re-open after recovery: %v", err)
	}
	defer s2.Close()
	for _, name := range []string{"storm-a", "storm-b"} {
		b1, d1 := s.topics[name].eng().StreamPos()
		b2, d2 := s2.topics[name].eng().StreamPos()
		if b1 != b2 || d1 != d2 {
			t.Fatalf("%s: recovered position (%d,%d) != restart position (%d,%d)", name, b1, d1, b2, d2)
		}
	}
}

func decodeBody(t *testing.T, resp *http.Response, out any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decode response: %v", err)
	}
}

// TestParkedTopicAfterFailedRollback is the regression test for the
// rollback latent bug: when the disk refuses the append AND the
// rollback reload fails, the daemon holds no state disk vouches for —
// it must park the topic (refuse reads and writes), not keep serving
// the in-memory state that is ahead of durable history as if it were
// current.
func TestParkedTopicAfterFailedRollback(t *testing.T) {
	injectAppend := errors.New("injected append failure")
	injectRead := errors.New("injected snapshot read failure")
	script := fault.NewScript(
		// The second append fails (the first is batch 1, which must land)...
		fault.Rule{Site: "journal.append.sync", Hit: 2, Err: injectAppend},
		// ...and the rollback cannot re-read the snapshot either.
		fault.Rule{Site: "persist.snap.read", Err: injectRead},
	)
	s, hs := faultServer(t, script, store.Options{Every: 100},
		storageOptions{ProbeInterval: 20 * time.Millisecond})
	client := hs.Client()

	const name = "parked"
	if code, ec := errCode(t, client, "POST", hs.URL+"/v1/topics", degradeCreateReq(name)); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, ec)
	}
	if code, ec := errCode(t, client, "POST", hs.URL+"/v1/topics/"+name+"/batches", degradeBatch(1)); code != http.StatusOK {
		t.Fatalf("batch 1: %d %s", code, ec)
	}
	if code, ec := errCode(t, client, "POST", hs.URL+"/v1/topics/"+name+"/batches", degradeBatch(2)); code != http.StatusServiceUnavailable || ec != codeStorageDegraded {
		t.Fatalf("batch 2 (append + rollback both fail): %d %s, want 503 %s", code, ec, codeStorageDegraded)
	}

	// Parked: the in-memory engine ran batch 2, but disk only vouches
	// for batch 1 — so nothing may be served, reads included.
	for _, url := range []string{
		hs.URL + "/v1/topics/" + name,
		hs.URL + "/v1/topics/" + name + "/users/0",
		hs.URL + "/v1/topics/" + name + "/features",
		hs.URL + "/v1/topics/" + name + "/snapshot",
	} {
		if code, ec := errCode(t, client, "GET", url, nil); code != http.StatusServiceUnavailable || ec != codeStorageDegraded {
			t.Fatalf("parked read %s: %d %s, want 503 %s", url, code, ec, codeStorageDegraded)
		}
	}
	if code, ec := errCode(t, client, "POST", hs.URL+"/v1/topics/"+name+"/batches", degradeBatch(3)); code != http.StatusServiceUnavailable || ec != codeStorageDegraded {
		t.Fatalf("parked write: %d %s, want 503 %s", code, ec, codeStorageDegraded)
	}
	var hr healthResponse
	if code, err := doJSON(client, "GET", hs.URL+"/v1/healthz", nil, &hr); err != nil || code != http.StatusOK {
		t.Fatalf("healthz: %d %v", code, err)
	}
	if hr.Storage == nil || len(hr.Storage.Parked) != 1 || hr.Storage.Parked[0] != name {
		t.Fatalf("healthz parked = %+v, want [%s]", hr.Storage, name)
	}

	// The disk heals: the probe reloads the topic from durable state and
	// proves it back with a compaction save.
	script.ClearRules()
	awaitStorageState(t, client, hs.URL, "ok")

	var sum topicSummary
	if code, err := doJSON(client, "GET", hs.URL+"/v1/topics/"+name, nil, &sum); err != nil || code != http.StatusOK {
		t.Fatalf("read after recovery: %d %v", code, err)
	}
	if sum.Batches != 1 {
		t.Fatalf("recovered topic serves %d batches, want 1: the failed batch must not leak back", sum.Batches)
	}
	// The rolled-back batch retries cleanly onto the recovered state.
	if code, ec := errCode(t, client, "POST", hs.URL+"/v1/topics/"+name+"/batches", degradeBatch(2)); code != http.StatusOK {
		t.Fatalf("retry after recovery: %d %s", code, ec)
	}
	if s.topics[name].eng().Batches() != 2 {
		t.Fatalf("batches after retry = %d, want 2", s.topics[name].eng().Batches())
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
			if rec := matrixServe(t, s, "POST", "/v1/topics/"+name+"/batches", degradeBatch(day)); rec.Code != http.StatusOK {
				t.Fatalf("batch %d: %d %s", day, rec.Code, rec.Body.String())
			}
		}
	}

	ctrl, _ := faultServer(t, nil, opts, storageOptions{})
	matrixServe(t, ctrl, "POST", "/v1/topics", degradeCreateReq(name))
	feed(ctrl, 1, 3)
	want := captureTopic(t, ctrl, name)

	// The create's save is the first rename; batch 3's compaction the second.
	script := fault.NewScript(fault.Rule{Site: "persist.snap.rename", Hit: 2, Err: errors.New("injected rename failure")})
	dir := t.TempDir()
	s, hs := faultServerAt(t, dir, script, opts, storageOptions{})
	matrixServe(t, s, "POST", "/v1/topics", degradeCreateReq(name))
	feed(s, 1, 3)
	var hr healthResponse
	if code, err := doJSON(hs.Client(), "GET", hs.URL+"/v1/healthz", nil, &hr); err != nil || code != http.StatusOK {
		t.Fatalf("healthz: %d %v", code, err)
	}
	if hr.Storage.Failures != 1 || hr.Storage.State != "ok" {
		t.Fatalf("storage after the failed compaction: %+v, want 1 failure and state ok", hr.Storage)
	}

	// A crash right now loses nothing: the journal holds all three batches.
	crashDir := t.TempDir()
	if err := os.CopyFS(crashDir, os.DirFS(dir)); err != nil {
		t.Fatal(err)
	}
	s2, err := newServer(crashDir, serverOptions{journal: opts}, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
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
	if code, err := doJSON(hs.Client(), "GET", hs.URL+"/v1/healthz", nil, &hr); err != nil || code != http.StatusOK {
		t.Fatalf("healthz: %d %v", code, err)
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
	} {
		t.Run(tc.label, func(t *testing.T) {
			dir := t.TempDir()
			s, _ := faultServerAt(t, dir, fault.NewScript(tc.rules...), opts, storageOptions{ProbeInterval: time.Hour})
			if rec := matrixServe(t, s, "POST", "/v1/topics", degradeCreateReq(name)); rec.Code != http.StatusCreated {
				t.Fatalf("create: %d %s", rec.Code, rec.Body.String())
			}
			rec := matrixServe(t, s, "POST", "/v1/topics/"+name+"/vocab", warm)
			if rec.Code != tc.vocabCode || (rec.Code != http.StatusOK && !strings.Contains(rec.Body.String(), codeStorage)) {
				t.Fatalf("warm-up: %d %s, want %d", rec.Code, rec.Body.String(), tc.vocabCode)
			}
			rec = matrixServe(t, s, "POST", "/v1/topics/"+name+"/batches", degradeBatch(1))
			t.Logf("batch 1 after the warm-up: %d", rec.Code)
			live := captureTopic(t, s, name)

			restartDir := t.TempDir()
			if err := os.CopyFS(restartDir, os.DirFS(dir)); err != nil {
				t.Fatal(err)
			}
			s2, err := newServer(restartDir, serverOptions{journal: opts}, t.Logf)
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
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
	s, hs := faultServerAt(t, dir, script, store.Options{Every: 2},
		storageOptions{ProbeInterval: 20 * time.Millisecond})
	client := hs.Client()
	url := hs.URL + "/v1/topics/" + name + "/batches"
	if code, ec := errCode(t, client, "POST", hs.URL+"/v1/topics", degradeCreateReq(name)); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, ec)
	}
	if code, ec := errCode(t, client, "POST", url, degradeBatch(1)); code != http.StatusOK {
		t.Fatalf("batch 1: %d %s", code, ec)
	}

	inject := errors.New("injected journal failure")
	script.AddRule(fault.Rule{Site: "journal.rotate.truncate", Err: inject})
	script.AddRule(fault.Rule{Site: "journal.create.open", Err: inject})
	// Batch 2 is a compaction point. Its frame is durable before the
	// rotate fails, so it is acked.
	if code, ec := errCode(t, client, "POST", url, degradeBatch(2)); code != http.StatusOK {
		t.Fatalf("batch 2: %d %s", code, ec)
	}
	resp, err := client.Post(url, "application/json", strings.NewReader(`{"time":3,"tweets":[{"tokens":["w1"],"user":0}]}`))
	if err != nil {
		t.Fatal(err)
	}
	var eb errorBody
	decodeBody(t, resp, &eb)
	if resp.StatusCode != http.StatusServiceUnavailable || eb.Error.Code != codeStorageDegraded || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("batch on a topic without a journal: %d %s (Retry-After %q), want 503 %s",
			resp.StatusCode, eb.Error.Code, resp.Header.Get("Retry-After"), codeStorageDegraded)
	}
	hr := awaitStorageState(t, client, hs.URL, "degraded")
	if len(hr.Degraded) != 1 || hr.Degraded[0] != name {
		t.Fatalf("healthz degraded = %v, want [%s]", hr.Degraded, name)
	}

	script.ClearRules()
	awaitStorageState(t, client, hs.URL, "ok")
	if code, ec := errCode(t, client, "POST", url, degradeBatch(3)); code != http.StatusOK {
		t.Fatalf("batch 3 after recovery: %d %s", code, ec)
	}
	s2, err := newServer(dir, serverOptions{}, t.Logf)
	if err != nil {
		t.Fatalf("re-open after recovery: %v", err)
	}
	defer s2.Close()
	if got, want := captureTopic(t, s2, name), captureTopic(t, s, name); got.batches != 3 || !bytes.Equal(got.snap, want.snap) {
		t.Fatalf("restart serves %d batches, snapshot equal = %v; want 3, true", got.batches, bytes.Equal(got.snap, want.snap))
	}
}

// TestDegradedRecoveryReconvergesReplication: a replicated primary whose
// disk fills keeps its follower at the last durable frame; once space
// frees and the probe recovers the topic, the recovery re-ships a fresh
// base, and subsequent batches replicate normally — the follower ends
// bit-aligned with the primary's stream position.
func TestDegradedRecoveryReconvergesReplication(t *testing.T) {
	handlers := [2]*shardHandler{{}, {}}
	var hss [2]*httptest.Server
	var urls []string
	for i := range handlers {
		hss[i] = httptest.NewServer(handlers[i])
		defer hss[i].Close()
		urls = append(urls, hss[i].URL)
	}
	script := fault.NewScript()
	fss := [2]fault.FS{script, nil}
	var servers [2]*server
	followerDir := ""
	for i := range servers {
		cc, err := newClusterConfig(urls[i], strings.Join(urls, ","), 32)
		if err != nil {
			t.Fatalf("cluster config %d: %v", i, err)
		}
		dir := t.TempDir()
		if i == 1 {
			followerDir = dir
		}
		s, err := newServer(dir, serverOptions{
			journal: store.Options{Every: 100},
			cluster: cc,
			repl:    &replOptions{Factor: 2, ProbeInterval: time.Hour},
			fs:      fss[i],
			storage: storageOptions{ProbeInterval: 20 * time.Millisecond},
		}, t.Logf)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		s.start()
		defer s.Close()
		servers[i] = s
		handlers[i].swap(s)
	}
	// A topic owned by shard 0, so shard 1 holds its replica.
	name := ""
	for i := 0; i < 100; i++ {
		n := fmt.Sprintf("rconv%02d", i)
		if servers[0].cluster.ring.Owner(n) == urls[0] {
			name = n
			break
		}
	}
	if name == "" {
		t.Fatal("no topic name owned by shard 0")
	}
	client := hss[0].Client()
	if code, ec := errCode(t, client, "POST", urls[0]+"/v1/topics", degradeCreateReq(name)); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, ec)
	}
	for day := 1; day <= 3; day++ {
		if code, ec := errCode(t, client, "POST", urls[0]+"/v1/topics/"+name+"/batches", degradeBatch(day)); code != http.StatusOK {
			t.Fatalf("batch %d: %d %s", day, code, ec)
		}
	}
	if b, d := replicaPos(t, followerDir, name); b != 3 {
		t.Fatalf("replica at (%d,%d) before the storm, want batches 3", b, d)
	}

	script.SetBudget(0)
	if code, ec := errCode(t, client, "POST", urls[0]+"/v1/topics/"+name+"/batches", degradeBatch(4)); code != http.StatusServiceUnavailable || ec != codeJournalWriteFailed {
		t.Fatalf("batch on full disk: %d %s", code, ec)
	}
	// The refused batch shipped nothing: the follower still sits at the
	// last durable frame.
	if b, _ := replicaPos(t, followerDir, name); b != 3 {
		t.Fatalf("replica moved to %d batches during the storm, want 3", b)
	}

	script.SetBudget(-1)
	awaitStorageState(t, client, urls[0], "ok")
	if code, ec := errCode(t, client, "POST", urls[0]+"/v1/topics/"+name+"/batches", degradeBatch(4)); code != http.StatusOK {
		t.Fatalf("batch after recovery: %d %s", code, ec)
	}
	pb, pd := servers[0].topics[name].eng().StreamPos()
	rb, rd := replicaPos(t, followerDir, name)
	if pb != rb || pd != rd {
		t.Fatalf("replication diverged after recovery: primary (%d,%d), replica (%d,%d)", pb, pd, rb, rd)
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
