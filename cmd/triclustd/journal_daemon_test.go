package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"triclust/internal/fault"
	"triclust/internal/journal"
	"triclust/internal/store"
)

// journalTopicName is the fixed topic every journal test drives.
const journalTopicName = "jtopic"

// jtCreateReq returns a deterministic create request over a small user
// universe with a low iteration budget (the tests measure persistence,
// not solver quality).
func jtCreateReq() createTopicRequest {
	users := make([]string, 12)
	for i := range users {
		users[i] = fmt.Sprintf("user%02d", i)
	}
	return createTopicRequest{
		Name:    journalTopicName,
		Users:   users,
		Options: topicOptions{MaxIter: 4, Seed: 7, MinDF: 1},
	}
}

// jtBatch returns the deterministic batch for timestamp day: raw-text
// tweets (exercising the tokenizer on replay) plus one retweet edge.
func jtBatch(day int) batchRequest {
	texts := []string{
		"love the #prop37 labeling win great news",
		"no on prop37 bad law hurts local farmers",
		"the measure reads like pure corporate greed",
		"proud to stand with science on labeling",
	}
	var tweets []tweetSpec
	for i := 0; i < 4; i++ {
		tweets = append(tweets, tweetSpec{
			Text: texts[(i+day)%len(texts)],
			User: (i*5 + day) % 12,
		})
	}
	rt := 0
	tweets = append(tweets, tweetSpec{Text: "boosting this", User: (day + 7) % 12, RetweetOf: &rt})
	return batchRequest{Time: day, Tweets: tweets}
}

func jtCreate(t *testing.T, client *http.Client, url string) {
	t.Helper()
	code, err := doJSON(client, "POST", url+"/v1/topics", jtCreateReq(), nil)
	if err != nil || code != http.StatusCreated {
		t.Fatalf("create: status %d err %v", code, err)
	}
}

func jtFeed(t *testing.T, client *http.Client, url string, from, to int) {
	t.Helper()
	for day := from; day < to; day++ {
		var resp batchResponse
		code, err := doJSON(client, "POST", url+"/v1/topics/"+journalTopicName+"/batches", jtBatch(day), &resp)
		if err != nil || code != http.StatusOK {
			t.Fatalf("batch %d: status %d err %v", day, code, err)
		}
		if resp.Skipped {
			t.Fatalf("batch %d skipped", day)
		}
	}
}

func jtSnapshotBytes(t *testing.T, client *http.Client, url string) []byte {
	t.Helper()
	resp, err := client.Get(url + "/v1/topics/" + journalTopicName + "/snapshot")
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: status %d", resp.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("snapshot read: %v", err)
	}
	return buf.Bytes()
}

func jtSummary(t *testing.T, client *http.Client, url string) topicSummary {
	t.Helper()
	var sum topicSummary
	code, err := doJSON(client, "GET", url+"/v1/topics/"+journalTopicName, nil, &sum)
	if err != nil || code != http.StatusOK {
		t.Fatalf("summary: status %d err %v", code, err)
	}
	return sum
}

// TestDaemonJournalCrashRecoveryBitIdentical is the end-to-end crash
// drill: a daemon journaling its batches is killed mid-append (torn
// final record), restarted, and fed the remainder of the stream. The
// recovered daemon's final snapshot must be byte-identical to that of a
// daemon that processed the whole stream uninterrupted — replay drift
// zero, not just within tolerance.
func TestDaemonJournalCrashRecoveryBitIdentical(t *testing.T) {
	const crashAt, total = 10, 14
	opts := store.Options{Every: 1 << 20, MaxBytes: 1 << 40} // no compaction during the test

	// Reference: the uninterrupted stream.
	_, refSrv := testServerOpts(t, t.TempDir(), opts)
	jtCreate(t, refSrv.Client(), refSrv.URL)
	jtFeed(t, refSrv.Client(), refSrv.URL, 0, total)
	want := jtSnapshotBytes(t, refSrv.Client(), refSrv.URL)

	// Crash run: process through crashAt, then die mid-append.
	dir := t.TempDir()
	_, srvA := testServerOpts(t, dir, opts)
	jtCreate(t, srvA.Client(), srvA.URL)
	jtFeed(t, srvA.Client(), srvA.URL, 0, crashAt)
	srvA.Close()

	// Tear the final record as a crash between write and ack would:
	// batch crashAt-1 is acknowledged and intact, then a partial frame of
	// the never-acknowledged next batch lands in the file.
	jp := filepath.Join(dir, journalTopicName+".journal")
	info, err := os.Stat(jp)
	if err != nil {
		t.Fatalf("journal stat: %v", err)
	}
	f, err := os.OpenFile(jp, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{1, 0xFF, 0x03, 0, 0, 'p', 'a', 'r'}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Restart: the torn tail is truncated, the intact records replayed.
	_, srvB := testServerOpts(t, dir, opts)
	if sum := jtSummary(t, srvB.Client(), srvB.URL); sum.Batches != crashAt {
		t.Fatalf("recovered %d batches, want %d (journal was %d bytes before tear)",
			sum.Batches, crashAt, info.Size())
	}

	// The stream resumes where the acknowledged prefix ended.
	jtFeed(t, srvB.Client(), srvB.URL, crashAt, total)
	got := jtSnapshotBytes(t, srvB.Client(), srvB.URL)
	if !bytes.Equal(got, want) {
		t.Fatalf("recovered stream diverged: snapshot %d bytes vs %d, equal=false", len(got), len(want))
	}
}

// TestDaemonJournalRestartWithoutTear is the plain restart drill: stop
// after an acknowledged batch, restart, finish the stream, and compare
// snapshots byte-for-byte with an uninterrupted run.
func TestDaemonJournalRestartWithoutTear(t *testing.T) {
	const stopAt, total = 5, 9
	opts := store.Options{Every: 3, MaxBytes: 1 << 40} // compaction mid-stream too

	_, refSrv := testServerOpts(t, t.TempDir(), opts)
	jtCreate(t, refSrv.Client(), refSrv.URL)
	jtFeed(t, refSrv.Client(), refSrv.URL, 0, total)
	want := jtSnapshotBytes(t, refSrv.Client(), refSrv.URL)

	dir := t.TempDir()
	_, srvA := testServerOpts(t, dir, opts)
	jtCreate(t, srvA.Client(), srvA.URL)
	jtFeed(t, srvA.Client(), srvA.URL, 0, stopAt)
	srvA.Close()

	_, srvB := testServerOpts(t, dir, opts)
	if sum := jtSummary(t, srvB.Client(), srvB.URL); sum.Batches != stopAt {
		t.Fatalf("recovered %d batches, want %d", sum.Batches, stopAt)
	}
	jtFeed(t, srvB.Client(), srvB.URL, stopAt, total)
	if got := jtSnapshotBytes(t, srvB.Client(), srvB.URL); !bytes.Equal(got, want) {
		t.Fatal("restarted stream's snapshot differs from the uninterrupted run")
	}
}

// TestDaemonJournalBytesPerBatch pins the amortized-durability contract:
// between compactions each batch appends O(batch) bytes to the journal —
// the same amount for identical batches no matter how much state has
// accumulated — and the O(state) snapshot file is not rewritten at all.
// At the compaction point the snapshot is rewritten once and the journal
// truncates back to its header.
func TestDaemonJournalBytesPerBatch(t *testing.T) {
	const every = 8
	dir := t.TempDir()
	_, srv := testServerOpts(t, dir, store.Options{Every: every, MaxBytes: 1 << 40})
	client := srv.Client()
	jtCreate(t, client, srv.URL)

	snapPath := filepath.Join(dir, journalTopicName+".snap")
	jourPath := filepath.Join(dir, journalTopicName+".journal")
	snapAfterCreate, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatalf("snapshot after create: %v", err)
	}

	// Identical-shaped batches (same texts, shifted users) so their
	// journal records have identical encoded size. A record ends with the
	// post-batch fingerprint, two varints as wide as the counters (not the
	// state) need. The solver draws 78 times a batch here, so the draw
	// counter is two bytes wide from the second batch until past the
	// 200th; the first batch is the warm-up the measured ones follow.
	const warmup = 1
	batchFor := func(day int) batchRequest {
		var tweets []tweetSpec
		for i := 0; i < 3; i++ {
			tweets = append(tweets, tweetSpec{Text: "steady state batch tokens here", User: (i + day) % 12})
		}
		return batchRequest{Time: day, Tweets: tweets}
	}
	for day := 0; day < warmup; day++ {
		if code, err := doJSON(client, "POST", srv.URL+"/v1/topics/"+journalTopicName+"/batches", batchFor(day), nil); err != nil || code != http.StatusOK {
			t.Fatalf("warm-up batch %d: status %d err %v", day, code, err)
		}
	}
	var deltas []int64
	prev := int64(0)
	if info, err := os.Stat(jourPath); err == nil {
		prev = info.Size()
	}
	for day := warmup; day < every-1; day++ {
		code, err := doJSON(client, "POST", srv.URL+"/v1/topics/"+journalTopicName+"/batches", batchFor(day), nil)
		if err != nil || code != http.StatusOK {
			t.Fatalf("batch %d: status %d err %v", day, code, err)
		}
		info, err := os.Stat(jourPath)
		if err != nil {
			t.Fatalf("journal stat: %v", err)
		}
		deltas = append(deltas, info.Size()-prev)
		prev = info.Size()
	}
	for i, d := range deltas {
		if d != deltas[0] {
			t.Fatalf("batch %d appended %d bytes, batch 0 appended %d — per-batch cost grew with state", i, d, deltas[0])
		}
	}
	// State accumulated (vocabulary, histories), yet the snapshot file
	// was not rewritten between compactions.
	snapNow, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapNow, snapAfterCreate) {
		t.Fatal("snapshot file rewritten between compactions")
	}

	// The next batch crosses -journal-every: snapshot rewritten once,
	// journal truncated to its bare header.
	code, err := doJSON(client, "POST", srv.URL+"/v1/topics/"+journalTopicName+"/batches", batchFor(every-1), nil)
	if err != nil || code != http.StatusOK {
		t.Fatalf("compaction batch: status %d err %v", code, err)
	}
	snapAfter, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(snapAfter, snapAfterCreate) {
		t.Fatal("compaction did not rewrite the snapshot")
	}
	info, err := os.Stat(jourPath)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() >= deltas[0] {
		t.Fatalf("journal not truncated at compaction: %d bytes", info.Size())
	}
}

// TestDaemonJournalMaxBytesCompaction verifies the size-based compaction
// trigger: a tiny -journal-max-bytes compacts on (nearly) every batch.
func TestDaemonJournalMaxBytesCompaction(t *testing.T) {
	dir := t.TempDir()
	_, srv := testServerOpts(t, dir, store.Options{Every: 1 << 20, MaxBytes: 64})
	jtCreate(t, srv.Client(), srv.URL)
	jtFeed(t, srv.Client(), srv.URL, 0, 3)
	info, err := os.Stat(filepath.Join(dir, journalTopicName+".journal"))
	if err != nil {
		t.Fatal(err)
	}
	// Every batch exceeds 64 bytes, so each one compacts: the journal
	// holds at most the header (18 bytes) after each acknowledged batch.
	if info.Size() > 64 {
		t.Fatalf("journal grew to %d bytes despite MaxBytes=64", info.Size())
	}
}

// TestDaemonJournalModeMigration pins the one load-compatibility fact:
// a snapshot-only data dir, as a build older than the journal wrote it,
// loads, gets a journal, and keeps its batches.
func TestDaemonJournalModeMigration(t *testing.T) {
	dir := t.TempDir()
	sA, srvA := testServer(t, dir)
	jtCreate(t, srvA.Client(), srvA.URL)
	jtFeed(t, srvA.Client(), srvA.URL, 0, 2)
	srvA.Close()
	// An old build's dir: the full state in the snapshot, no journal.
	if err := sA.snapshotAll(); err != nil {
		t.Fatal(err)
	}
	jp := filepath.Join(dir, journalTopicName+".journal")
	if err := os.Remove(jp); err != nil {
		t.Fatal(err)
	}

	_, srvB := testServer(t, dir)
	if sum := jtSummary(t, srvB.Client(), srvB.URL); sum.Batches != 2 {
		t.Fatalf("snapshot-only dir loaded %d batches, want 2", sum.Batches)
	}
	if _, err := os.Stat(jp); err != nil {
		t.Fatalf("loaded topic got no journal: %v", err)
	}
	jtFeed(t, srvB.Client(), srvB.URL, 2, 4)
	srvB.Close()

	_, srvC := testServer(t, dir)
	if sum := jtSummary(t, srvC.Client(), srvC.URL); sum.Batches != 4 {
		t.Fatalf("after restart: %d batches, want 4", sum.Batches)
	}
}

// TestFirstBatchAfterRestartAppends: a topic loaded with an empty
// journal tail (every clean shutdown leaves one) holds an open journal
// like any other, so its first batch after the restart appends one
// O(batch) record and leaves the O(state) snapshot alone.
func TestFirstBatchAfterRestartAppends(t *testing.T) {
	dir := t.TempDir()
	sA, srvA := testServer(t, dir)
	jtCreate(t, srvA.Client(), srvA.URL)
	jtFeed(t, srvA.Client(), srvA.URL, 0, 3)
	srvA.Close()
	if err := sA.snapshotAll(); err != nil { // graceful shutdown compacts
		t.Fatal(err)
	}

	snapPath := filepath.Join(dir, journalTopicName+".snap")
	snapBefore, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	_, srvB := testServer(t, dir)
	jtFeed(t, srvB.Client(), srvB.URL, 3, 4)
	snapAfter, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapAfter, snapBefore) {
		t.Fatal("first batch after a restart rewrote the snapshot")
	}
	j, err := journal.Load(fault.OS, filepath.Join(dir, journalTopicName+".journal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(j.Records) != 1 {
		t.Fatalf("journal holds %d records after the first post-restart batch, want 1", len(j.Records))
	}
}

// TestDaemonJournalQuarantine corrupts a journal's header and restarts:
// the daemon must serve the topic from its snapshot, move the
// undecodable journal aside, and keep running.
func TestDaemonJournalQuarantine(t *testing.T) {
	dir := t.TempDir()
	opts := store.Options{Every: 1 << 20, MaxBytes: 1 << 40}
	_, srvA := testServerOpts(t, dir, opts)
	jtCreate(t, srvA.Client(), srvA.URL)
	jtFeed(t, srvA.Client(), srvA.URL, 0, 3)
	srvA.Close()

	jp := filepath.Join(dir, journalTopicName+".journal")
	data, err := os.ReadFile(jp)
	if err != nil {
		t.Fatal(err)
	}
	copy(data, "GARBAGE!")
	if err := os.WriteFile(jp, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, srvB := testServerOpts(t, dir, opts)
	// The snapshot predates every journaled batch (create-time state).
	if sum := jtSummary(t, srvB.Client(), srvB.URL); sum.Batches != 0 {
		t.Fatalf("quarantined journal still applied: %d batches", sum.Batches)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), journalTopicName+".journal.corrupt") {
			found = true
		}
	}
	if !found {
		t.Fatal("undecodable journal was not quarantined")
	}
	// The daemon stays writable after quarantine.
	jtFeed(t, srvB.Client(), srvB.URL, 0, 1)
}
