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

// jtCreateReq returns a deterministic create request for topic name over a
// small user universe with a low iteration budget (the tests measure
// persistence, not solver quality).
func jtCreateReq(name string) createTopicRequest {
	users := make([]string, 12)
	for i := range users {
		users[i] = fmt.Sprintf("user%02d", i)
	}
	return createTopicRequest{
		Name:    name,
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
	if r := call(t, client, "POST", url+"/v1/topics", jtCreateReq(journalTopicName), nil); r.code != http.StatusCreated {
		t.Fatalf("create: status %d", r.code)
	}
}

func jtFeed(t *testing.T, client *http.Client, url string, from, to int) {
	t.Helper()
	for day := from; day < to; day++ {
		var resp batchResponse
		if r := call(t, client, "POST", url+"/v1/topics/"+journalTopicName+"/batches", jtBatch(day), &resp); r.code != http.StatusOK || resp.Skipped {
			t.Fatalf("batch %d: status %d, skipped %v", day, r.code, resp.Skipped)
		}
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
	srv := front(t, serve(t, dir, serverOptions{journal: store.Options{Every: every, MaxBytes: 1 << 40}}, false))
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
		if r := call(nil, client, "POST", srv.URL+"/v1/topics/"+journalTopicName+"/batches", batchFor(day), nil); r.err != nil || r.code != http.StatusOK {
			t.Fatalf("warm-up batch %d: status %d err %v", day, r.code, r.err)
		}
	}
	var deltas []int64
	prev := int64(0)
	if info, err := os.Stat(jourPath); err == nil {
		prev = info.Size()
	}
	for day := warmup; day < every-1; day++ {
		r := call(nil, client, "POST", srv.URL+"/v1/topics/"+journalTopicName+"/batches", batchFor(day), nil)
		if r.err != nil || r.code != http.StatusOK {
			t.Fatalf("batch %d: status %d err %v", day, r.code, r.err)
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
	r := call(nil, client, "POST", srv.URL+"/v1/topics/"+journalTopicName+"/batches", batchFor(every-1), nil)
	if r.err != nil || r.code != http.StatusOK {
		t.Fatalf("compaction batch: status %d err %v", r.code, r.err)
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
	srv := front(t, serve(t, dir, serverOptions{journal: store.Options{Every: 1 << 20, MaxBytes: 64}}, false))
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
	sA := serve(t, dir, serverOptions{}, false)
	srvA := front(t, sA)
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

	srvB := front(t, serve(t, dir, serverOptions{}, false))
	var sum topicSummary
	if r := call(t, srvB.Client(), "GET", srvB.URL+"/v1/topics/"+journalTopicName, nil, &sum); r.code != http.StatusOK || sum.Batches != 2 {
		t.Fatalf("status %d: snapshot-only dir loaded %d batches, want 2", r.code, sum.Batches)
	}
	if _, err := os.Stat(jp); err != nil {
		t.Fatalf("loaded topic got no journal: %v", err)
	}
	jtFeed(t, srvB.Client(), srvB.URL, 2, 4)
	srvB.Close()

	srvC := front(t, serve(t, dir, serverOptions{}, false))
	sum = topicSummary{}
	if r := call(t, srvC.Client(), "GET", srvC.URL+"/v1/topics/"+journalTopicName, nil, &sum); r.code != http.StatusOK || sum.Batches != 4 {
		t.Fatalf("status %d: after restart: %d batches, want 4", r.code, sum.Batches)
	}
}

// TestFirstBatchAfterRestartAppends: a topic loaded with an empty
// journal tail (every clean shutdown leaves one) holds an open journal
// like any other, so its first batch after the restart appends one
// O(batch) record and leaves the O(state) snapshot alone.
func TestFirstBatchAfterRestartAppends(t *testing.T) {
	dir := t.TempDir()
	sA := serve(t, dir, serverOptions{}, false)
	srvA := front(t, sA)
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
	srvB := front(t, serve(t, dir, serverOptions{}, false))
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
	srvA := front(t, serve(t, dir, serverOptions{journal: opts}, false))
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

	srvB := front(t, serve(t, dir, serverOptions{journal: opts}, false))
	// The snapshot predates every journaled batch (create-time state).
	var sum topicSummary
	if r := call(t, srvB.Client(), "GET", srvB.URL+"/v1/topics/"+journalTopicName, nil, &sum); r.code != http.StatusOK || sum.Batches != 0 {
		t.Fatalf("status %d: quarantined journal still applied: %d batches", r.code, sum.Batches)
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
