package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"triclust"
	"triclust/internal/codec"
	"triclust/internal/fault"
	"triclust/internal/journal"
	"triclust/internal/store"
	"triclust/internal/synth"
)

// testServer runs a daemon at the default compaction cadence; tests that
// care about the cadence use testServerOpts.
func testServer(t *testing.T, dataDir string) (*server, *httptest.Server) {
	return testServerOpts(t, dataDir, store.Options{})
}

func testServerOpts(t *testing.T, dataDir string, opts store.Options) (*server, *httptest.Server) {
	t.Helper()
	s, err := newServer(dataDir, serverOptions{journal: opts}, t.Logf)
	if err != nil {
		t.Fatalf("newServer: %v", err)
	}
	hs := httptest.NewServer(s)
	t.Cleanup(hs.Close)
	return s, hs
}

// doJSON issues one JSON request and decodes the response. It returns
// errors instead of failing the test so worker goroutines can use it.
func doJSON(client *http.Client, method, url string, body, out any) (int, error) {
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			return 0, err
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s decode: %w", method, url, err)
		}
	}
	return resp.StatusCode, nil
}

// errCode fetches the stable error code of a failed request.
func errCode(t *testing.T, client *http.Client, method, url string, body any) (int, string) {
	t.Helper()
	var eb errorBody
	code, err := doJSON(client, method, url, body, &eb)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	return code, eb.Error.Code
}

func synthTopic(t *testing.T, seed int64) (*synth.Dataset, createTopicRequest) {
	t.Helper()
	cfg := synth.DefaultConfig()
	cfg.Seed = seed
	cfg.NumUsers = 30
	cfg.Days = 5
	cfg.ElectionDay = 3
	d, err := synth.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	names := make([]string, len(d.Corpus.Users))
	for i, u := range d.Corpus.Users {
		names[i] = u.Name
	}
	req := createTopicRequest{
		Name:    fmt.Sprintf("topic-%d", seed),
		Users:   names,
		Options: topicOptions{MaxIter: 10, Seed: seed},
	}
	return d, req
}

func dayTweets(d *synth.Dataset, day int) []tweetSpec {
	var out []tweetSpec
	for _, tw := range d.Corpus.Tweets {
		if tw.Time == day {
			out = append(out, tweetSpec{Tokens: tw.Tokens, User: tw.User})
		}
	}
	return out
}

// TestTwoTopicsConcurrently drives two independent topic sessions from
// separate goroutines end to end (create → daily batches → user query →
// snapshot export). Under go test -race this exercises the registry and
// the per-session locking.
func TestTwoTopicsConcurrently(t *testing.T) {
	_, srv := testServer(t, "")
	client := srv.Client()

	type topicRun struct {
		d    *synth.Dataset
		name string
	}
	var runs []topicRun
	for seed := int64(1); seed <= 2; seed++ {
		d, req := synthTopic(t, seed)
		var sum topicSummary
		code, err := doJSON(client, "POST", srv.URL+"/v1/topics", req, &sum)
		if err != nil || code != http.StatusCreated {
			t.Fatalf("create %s: status %d err %v", req.Name, code, err)
		}
		if sum.Users != len(req.Users) || sum.Batches != 0 {
			t.Fatalf("create summary %+v", sum)
		}
		runs = append(runs, topicRun{d, req.Name})
	}

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for _, run := range runs {
		wg.Add(1)
		go func(run topicRun) {
			defer wg.Done()
			processed := 0
			for day := 0; day < 5; day++ {
				batch := batchRequest{Time: day, Tweets: dayTweets(run.d, day)}
				var resp batchResponse
				code, err := doJSON(client, "POST",
					srv.URL+"/v1/topics/"+run.name+"/batches", batch, &resp)
				if err != nil {
					errs <- err
					return
				}
				if code != http.StatusOK {
					errs <- fmt.Errorf("%s day %d: status %d", run.name, day, code)
					return
				}
				if resp.Skipped != (len(batch.Tweets) == 0) {
					errs <- fmt.Errorf("%s day %d: skipped=%v for %d tweets",
						run.name, day, resp.Skipped, len(batch.Tweets))
					return
				}
				if len(resp.Tweets) != len(batch.Tweets) {
					errs <- fmt.Errorf("%s day %d: %d results for %d tweets",
						run.name, day, len(resp.Tweets), len(batch.Tweets))
					return
				}
				if !resp.Skipped {
					processed++
					for _, s := range resp.Tweets {
						if s.Confidence < 0 || s.Confidence > 1 || s.ClassName == "" {
							errs <- fmt.Errorf("%s day %d: bad sentiment %+v", run.name, day, s)
							return
						}
					}
				}
			}
			if processed < 2 {
				errs <- fmt.Errorf("%s: only %d batches processed", run.name, processed)
			}
		}(run)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Post-stream queries against both sessions.
	for _, run := range runs {
		var sum topicSummary
		code, err := doJSON(client, "GET", srv.URL+"/v1/topics/"+run.name, nil, &sum)
		if err != nil || code != http.StatusOK {
			t.Fatalf("info %s: status %d err %v", run.name, code, err)
		}
		if sum.Batches < 2 || sum.VocabSize == 0 || sum.KnownUsers == 0 || !sum.Frozen {
			t.Fatalf("summary %s: %+v", run.name, sum)
		}
		user := run.d.Corpus.Tweets[0].User
		var est userSentimentJSON
		code, err = doJSON(client, "GET",
			fmt.Sprintf("%s/v1/topics/%s/users/%d", srv.URL, run.name, user), nil, &est)
		if err != nil || code != http.StatusOK {
			t.Fatalf("estimate %s user %d: status %d err %v", run.name, user, code, err)
		}
		if est.User != user || est.Confidence < 0 || est.Confidence > 1 {
			t.Fatalf("estimate %s: %+v", run.name, est)
		}
		var feats featuresResponse
		code, err = doJSON(client, "GET", srv.URL+"/v1/topics/"+run.name+"/features", nil, &feats)
		if err != nil || code != http.StatusOK {
			t.Fatalf("features %s: status %d err %v", run.name, code, err)
		}
		if len(feats.Vocabulary) == 0 || len(feats.Features) != len(feats.Vocabulary) {
			t.Fatalf("features %s: %d words, %d features",
				run.name, len(feats.Vocabulary), len(feats.Features))
		}
	}

	var all []topicSummary
	if code, err := doJSON(client, "GET", srv.URL+"/v1/topics", nil, &all); err != nil || code != http.StatusOK {
		t.Fatalf("list: status %d err %v", code, err)
	}
	if len(all) != 2 {
		t.Fatalf("list has %d topics", len(all))
	}
}

func TestTopicLifecycleAndErrors(t *testing.T) {
	_, srv := testServer(t, "")
	client := srv.Client()

	// Unknown topic → 404 with a stable code.
	if code, ec := errCode(t, client, "GET", srv.URL+"/v1/topics/nope", nil); code != http.StatusNotFound || ec != codeTopicNotFound {
		t.Fatalf("unknown topic: status %d code %q", code, ec)
	}
	// Create without users → 400.
	if code, ec := errCode(t, client, "POST", srv.URL+"/v1/topics",
		createTopicRequest{Name: "x"}); code != http.StatusBadRequest || ec != codeInvalidRequest {
		t.Fatalf("create without users: status %d code %q", code, ec)
	}
	// Bad topic name → 400 invalid_topic_name.
	if code, ec := errCode(t, client, "POST", srv.URL+"/v1/topics",
		createTopicRequest{Name: "../escape", Users: []string{"a"}}); code != http.StatusBadRequest || ec != codeInvalidName {
		t.Fatalf("bad name: status %d code %q", code, ec)
	}
	// Invalid configuration → 400 invalid_config.
	if code, ec := errCode(t, client, "POST", srv.URL+"/v1/topics",
		createTopicRequest{Name: "bad-k", Users: []string{"a"}, Options: topicOptions{K: 9}}); code != http.StatusBadRequest || ec != codeInvalidConfig {
		t.Fatalf("invalid config: status %d code %q", code, ec)
	}
	// Create, duplicate → 409.
	req := createTopicRequest{Name: "x", Users: []string{"a", "b"}}
	if code, err := doJSON(client, "POST", srv.URL+"/v1/topics", req, nil); err != nil || code != http.StatusCreated {
		t.Fatalf("create: status %d err %v", code, err)
	}
	if code, ec := errCode(t, client, "POST", srv.URL+"/v1/topics", req); code != http.StatusConflict || ec != codeTopicExists {
		t.Fatalf("duplicate create: status %d code %q", code, ec)
	}

	// Empty batch is a recorded no-op.
	var resp batchResponse
	if code, err := doJSON(client, "POST", srv.URL+"/v1/topics/x/batches",
		batchRequest{Time: 0}, &resp); err != nil || code != http.StatusOK || !resp.Skipped {
		t.Fatalf("empty batch: status %d skipped %v err %v", code, resp.Skipped, err)
	}
	// Invalid user index → 422 invalid_batch.
	if code, ec := errCode(t, client, "POST", srv.URL+"/v1/topics/x/batches",
		batchRequest{Time: 1, Tweets: []tweetSpec{{Text: "hi", User: 9}}}); code != http.StatusUnprocessableEntity || ec != codeInvalidBatch {
		t.Fatalf("invalid batch: status %d code %q", code, ec)
	}
	// Valid batch; then a stale timestamp → 409 stale_timestamp.
	if code, err := doJSON(client, "POST", srv.URL+"/v1/topics/x/batches",
		batchRequest{Time: 1, Tweets: []tweetSpec{
			{Text: "love love great win", User: 0},
			{Text: "love great hate awful", User: 1},
		}}, &resp); err != nil || code != http.StatusOK || resp.Skipped {
		t.Fatalf("valid batch: status %d err %v", code, err)
	}
	if code, ec := errCode(t, client, "POST", srv.URL+"/v1/topics/x/batches",
		batchRequest{Time: 1, Tweets: []tweetSpec{{Text: "again", User: 0}}}); code != http.StatusConflict || ec != codeStaleTimestamp {
		t.Fatalf("stale timestamp: status %d code %q", code, ec)
	}
	// User with no history → 404; delete → 204; gone → 404.
	if code, _ := doJSON(client, "GET", srv.URL+"/v1/topics/x/users/1", nil, nil); code != http.StatusOK {
		t.Fatalf("active user estimate: status %d", code)
	}
	if code, ec := errCode(t, client, "GET", srv.URL+"/v1/topics/x/users/99", nil); code != http.StatusNotFound || ec != codeUserNotFound {
		t.Fatalf("unknown user estimate: status %d code %q", code, ec)
	}
	req2, err := http.NewRequest(http.MethodDelete, srv.URL+"/v1/topics/x", nil)
	if err != nil {
		t.Fatal(err)
	}
	del, err := client.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	del.Body.Close()
	if del.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d", del.StatusCode)
	}
	if code, _ := doJSON(client, "GET", srv.URL+"/v1/topics/x", nil, nil); code != http.StatusNotFound {
		t.Fatalf("deleted topic: status %d", code)
	}
}

// TestVocabWarmupOverHTTP: POST /vocab seeds and freezes the vocabulary
// before any batch, and warm-up after the freeze fails with a stable code.
func TestVocabWarmupOverHTTP(t *testing.T) {
	_, srv := testServer(t, "")
	client := srv.Client()
	req := createTopicRequest{Name: "warm", Users: []string{"a"}, Options: topicOptions{MinDF: 2, MaxIter: 5}}
	if code, err := doJSON(client, "POST", srv.URL+"/v1/topics", req, nil); err != nil || code != http.StatusCreated {
		t.Fatalf("create: %d %v", code, err)
	}
	var vr vocabResponse
	code, err := doJSON(client, "POST", srv.URL+"/v1/topics/warm/vocab", vocabRequest{
		Texts: []string{"label gmo ballot", "label gmo vote", "stray word"},
	}, &vr)
	if err != nil || code != http.StatusOK || vr.Frozen {
		t.Fatalf("warm-up: %d %+v %v", code, vr, err)
	}
	code, err = doJSON(client, "POST", srv.URL+"/v1/topics/warm/vocab", vocabRequest{Freeze: true}, &vr)
	if err != nil || code != http.StatusOK || !vr.Frozen || vr.VocabSize != 2 {
		t.Fatalf("freeze: %d %+v %v", code, vr, err)
	}
	if code, ec := errCode(t, client, "POST", srv.URL+"/v1/topics/warm/vocab",
		vocabRequest{Texts: []string{"too late"}}); code != http.StatusConflict || ec != codeVocabFrozen {
		t.Fatalf("post-freeze warm-up: status %d code %q", code, ec)
	}
	// Batches run against the pre-frozen vocabulary.
	var resp batchResponse
	if code, err := doJSON(client, "POST", srv.URL+"/v1/topics/warm/batches",
		batchRequest{Time: 0, Tweets: []tweetSpec{{Text: "label gmo today", User: 0}}}, &resp); err != nil || code != http.StatusOK || resp.Skipped {
		t.Fatalf("batch after freeze: %d %v", code, err)
	}
	var sum topicSummary
	if _, err := doJSON(client, "GET", srv.URL+"/v1/topics/warm", nil, &sum); err != nil || sum.VocabSize != 2 {
		t.Fatalf("summary after batch: %+v %v", sum, err)
	}
}

// fetchSnapshot downloads a topic's binary snapshot.
func fetchSnapshot(t *testing.T, client *http.Client, url string) []byte {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("snapshot content type %q", ct)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSnapshotRestoreOverHTTP: GET …/snapshot → PUT /v1/topics/{new}
// round-trips a topic; the restored topic serves identical estimates and
// processes the next batch identically to the original.
func TestSnapshotRestoreOverHTTP(t *testing.T) {
	_, srv := testServer(t, "")
	client := srv.Client()
	d, req := synthTopic(t, 5)
	if code, err := doJSON(client, "POST", srv.URL+"/v1/topics", req, nil); err != nil || code != http.StatusCreated {
		t.Fatalf("create: %d %v", code, err)
	}
	for day := 0; day < 3; day++ {
		if code, err := doJSON(client, "POST", srv.URL+"/v1/topics/"+req.Name+"/batches",
			batchRequest{Time: day, Tweets: dayTweets(d, day)}, nil); err != nil || code != http.StatusOK {
			t.Fatalf("day %d: %d %v", day, code, err)
		}
	}
	snap := fetchSnapshot(t, client, srv.URL+"/v1/topics/"+req.Name+"/snapshot")

	// Corrupt snapshot body → 400 invalid_snapshot, nothing registered.
	bad := append([]byte(nil), snap...)
	bad[len(bad)/2] ^= 0xff
	putReq, _ := http.NewRequest(http.MethodPut, srv.URL+"/v1/topics/badcopy", bytes.NewReader(bad))
	resp, err := client.Do(putReq)
	if err != nil {
		t.Fatal(err)
	}
	var eb errorBody
	_ = json.NewDecoder(resp.Body).Decode(&eb)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || eb.Error.Code != codeInvalidSnapshot {
		t.Fatalf("corrupt PUT: status %d code %q", resp.StatusCode, eb.Error.Code)
	}

	// Pristine snapshot restores under a new name.
	putReq, _ = http.NewRequest(http.MethodPut, srv.URL+"/v1/topics/copy", bytes.NewReader(snap))
	resp, err = client.Do(putReq)
	if err != nil {
		t.Fatal(err)
	}
	var sum topicSummary
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || sum.Batches != 3 || sum.Name != "copy" {
		t.Fatalf("restore: status %d summary %+v", resp.StatusCode, sum)
	}

	// The next batch solves identically on the original and the copy.
	batch := batchRequest{Time: 3, Tweets: dayTweets(d, 3)}
	var orig, copied batchResponse
	if code, err := doJSON(client, "POST", srv.URL+"/v1/topics/"+req.Name+"/batches", batch, &orig); err != nil || code != http.StatusOK {
		t.Fatalf("original day 3: %d %v", code, err)
	}
	if code, err := doJSON(client, "POST", srv.URL+"/v1/topics/copy/batches", batch, &copied); err != nil || code != http.StatusOK {
		t.Fatalf("copy day 3: %d %v", code, err)
	}
	if len(orig.Tweets) != len(copied.Tweets) || orig.Iterations != copied.Iterations {
		t.Fatalf("restored continuation diverged: %d/%d tweets, %d/%d iterations",
			len(orig.Tweets), len(copied.Tweets), orig.Iterations, copied.Iterations)
	}
	for i := range orig.Tweets {
		if orig.Tweets[i].Class != copied.Tweets[i].Class ||
			math.Abs(orig.Tweets[i].Confidence-copied.Tweets[i].Confidence) > 1e-12 {
			t.Fatalf("tweet %d diverged: %+v vs %+v", i, orig.Tweets[i], copied.Tweets[i])
		}
	}
}

// TestDataDirRestart is the durability acceptance test: a daemon with
// -data-dir restarted mid-stream serves the same user estimates it did
// before the restart, and the stream continues where it stopped.
func TestDataDirRestart(t *testing.T) {
	dir := t.TempDir()
	d, req := synthTopic(t, 7)

	s1, srv1 := testServer(t, dir)
	client := srv1.Client()
	if code, err := doJSON(client, "POST", srv1.URL+"/v1/topics", req, nil); err != nil || code != http.StatusCreated {
		t.Fatalf("create: %d %v", code, err)
	}
	for day := 0; day < 3; day++ {
		if code, err := doJSON(client, "POST", srv1.URL+"/v1/topics/"+req.Name+"/batches",
			batchRequest{Time: day, Tweets: dayTweets(d, day)}, nil); err != nil || code != http.StatusOK {
			t.Fatalf("day %d: %d %v", day, code, err)
		}
	}
	var beforeSum topicSummary
	if _, err := doJSON(client, "GET", srv1.URL+"/v1/topics/"+req.Name, nil, &beforeSum); err != nil {
		t.Fatal(err)
	}
	before := make(map[int]userSentimentJSON)
	for u := range req.Users {
		var est userSentimentJSON
		code, err := doJSON(client, "GET",
			fmt.Sprintf("%s/v1/topics/%s/users/%d", srv1.URL, req.Name, u), nil, &est)
		if err != nil {
			t.Fatal(err)
		}
		if code == http.StatusOK {
			before[u] = est
		}
	}
	if len(before) == 0 {
		t.Fatal("no user estimates before restart")
	}
	if err := s1.snapshotAll(); err != nil {
		t.Fatalf("final snapshot: %v", err)
	}
	srv1.Close()

	// "Restart": a fresh server over the same data dir.
	_, srv2 := testServer(t, dir)
	client2 := srv2.Client()
	var afterSum topicSummary
	if code, err := doJSON(client2, "GET", srv2.URL+"/v1/topics/"+req.Name, nil, &afterSum); err != nil || code != http.StatusOK {
		t.Fatalf("summary after restart: %d %v", code, err)
	}
	if afterSum.Batches != beforeSum.Batches || afterSum.VocabSize != beforeSum.VocabSize {
		t.Fatalf("summary changed across restart: %+v vs %+v", beforeSum, afterSum)
	}
	if beforeSum.LastTime == nil || afterSum.LastTime == nil || *afterSum.LastTime != *beforeSum.LastTime {
		t.Fatalf("last_time lost across restart: %+v vs %+v", beforeSum.LastTime, afterSum.LastTime)
	}
	for u, want := range before {
		var got userSentimentJSON
		code, err := doJSON(client2, "GET",
			fmt.Sprintf("%s/v1/topics/%s/users/%d", srv2.URL, req.Name, u), nil, &got)
		if err != nil || code != http.StatusOK {
			t.Fatalf("user %d after restart: %d %v", u, code, err)
		}
		if got.Class != want.Class || math.Abs(got.Confidence-want.Confidence) > 1e-12 {
			t.Fatalf("user %d estimate changed across restart: %+v vs %+v", u, want, got)
		}
	}
	// Feature sentiments are derived from the restored factors, so the
	// endpoint serves full data after the restart too.
	var feats featuresResponse
	if code, err := doJSON(client2, "GET", srv2.URL+"/v1/topics/"+req.Name+"/features", nil, &feats); err != nil || code != http.StatusOK {
		t.Fatalf("features after restart: %d %v", code, err)
	}
	if len(feats.Vocabulary) == 0 || len(feats.Features) != len(feats.Vocabulary) {
		t.Fatalf("features after restart: %d words, %d features",
			len(feats.Vocabulary), len(feats.Features))
	}
	// The stream picks up where it stopped: day 2 again conflicts, day 3
	// processes.
	if code, ec := errCode(t, client2, "POST", srv2.URL+"/v1/topics/"+req.Name+"/batches",
		batchRequest{Time: 2, Tweets: dayTweets(d, 2)}); code != http.StatusConflict || ec != codeStaleTimestamp {
		t.Fatalf("stale day after restart: status %d code %q", code, ec)
	}
	var resp batchResponse
	if code, err := doJSON(client2, "POST", srv2.URL+"/v1/topics/"+req.Name+"/batches",
		batchRequest{Time: 3, Tweets: dayTweets(d, 3)}, &resp); err != nil || code != http.StatusOK {
		t.Fatalf("day 3 after restart: %d %v", code, err)
	}
}

// TestDeleteRecreateFileConsistency hammers one topic name with
// concurrent creates (distinguishable by user count) and deletes, and
// after each round checks the durability invariant the per-name save
// lock exists for: the snapshot file on disk belongs to exactly the
// topic the registry serves — never to a deleted or superseded
// incarnation — and a deleted name leaves no file behind.
func TestDeleteRecreateFileConsistency(t *testing.T) {
	dir := t.TempDir()
	_, srv := testServer(t, dir)
	client := srv.Client()
	const name = "contested"
	topics := srv.URL + "/v1/topics"
	snap := filepath.Join(dir, name+".snap")

	for round := 0; round < 25; round++ {
		var wg sync.WaitGroup
		for _, users := range [][]string{{"a"}, {"a", "b"}, nil} {
			wg.Add(1)
			go func(users []string) {
				defer wg.Done()
				if users == nil {
					_, _ = doJSON(client, http.MethodDelete, topics+"/"+name, nil, nil)
					return
				}
				_, _ = doJSON(client, http.MethodPost, topics,
					createTopicRequest{Name: name, Users: users}, nil)
			}(users)
		}
		wg.Wait()

		var sum topicSummary
		code, err := doJSON(client, http.MethodGet, topics+"/"+name, nil, &sum)
		if err != nil {
			t.Fatalf("round %d: info: %v", round, err)
		}
		data, readErr := os.ReadFile(snap)
		switch code {
		case http.StatusOK:
			if readErr != nil {
				t.Fatalf("round %d: topic registered but snapshot missing: %v", round, readErr)
			}
			tp, rerr := triclust.Restore(bytes.NewReader(data))
			if rerr != nil {
				t.Fatalf("round %d: snapshot does not restore: %v", round, rerr)
			}
			if tp.Users() != sum.Users {
				t.Fatalf("round %d: snapshot holds a topic with %d users, registry serves %d",
					round, tp.Users(), sum.Users)
			}
		case http.StatusNotFound:
			if readErr == nil {
				t.Fatalf("round %d: topic deleted but snapshot file remains", round)
			}
		default:
			t.Fatalf("round %d: unexpected status %d", round, code)
		}
		_, _ = doJSON(client, http.MethodDelete, topics+"/"+name, nil, nil)
	}
}

// legacySnapshot is the header of a version-1 snapshot (magic, version 1,
// zeros): everything a reader sees of one before it turns it away.
var legacySnapshot = append([]byte("TRICSNAP\x01\x00"), make([]byte, 10)...)

// TestLoadAllQuarantinesUnsupportedVersion: a daemon upgrade must not
// silently discard old-format snapshots. Startup renames them out of the
// *.snap namespace so a same-name create cannot overwrite the only copy
// of the old state, and serves an empty (not wrong) topic. The journal of
// the batches acked after that snapshot goes aside with it: left in place,
// the create would delete it as stale.
func TestLoadAllQuarantinesUnsupportedVersion(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "prop37.snap"), legacySnapshot, 0o644); err != nil {
		t.Fatal(err)
	}
	jpath := filepath.Join(dir, "prop37.journal")
	jw, err := journal.Create(fault.OS, jpath, codec.Checksum(legacySnapshot))
	if err != nil {
		t.Fatal(err)
	}
	if err := jw.Append(&journal.Record{Time: 7, Batches: 3, RandDraws: 30, Tweets: []triclust.Tweet{
		{Text: "love #prop37", User: 0, Time: 7, RetweetOf: -1, Label: triclust.NoLabel},
	}}); err != nil {
		t.Fatal(err)
	}
	jw.Close()
	acked, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	_, srv := testServer(t, dir)
	code, _ := doJSON(srv.Client(), http.MethodGet, srv.URL+"/v1/topics/prop37", nil, nil)
	if code != http.StatusNotFound {
		t.Fatalf("legacy topic served with status %d", code)
	}
	if _, err := os.Stat(filepath.Join(dir, "prop37.snap")); !os.IsNotExist(err) {
		t.Fatalf("legacy file still occupies the snapshot name: %v", err)
	}
	kept, err := os.ReadFile(filepath.Join(dir, "prop37.snap.unsupported-version"))
	if err != nil {
		t.Fatalf("quarantined copy missing: %v", err)
	}
	if !bytes.Equal(kept, legacySnapshot) {
		t.Fatal("quarantined copy does not match the original bytes")
	}
	// The freed name is usable again without touching the quarantined file.
	if code, err := doJSON(srv.Client(), http.MethodPost, srv.URL+"/v1/topics",
		createTopicRequest{Name: "prop37", Users: []string{"a", "b"}}, nil); err != nil || code != http.StatusCreated {
		t.Fatalf("re-create over quarantined name: %d %v", code, err)
	}
	if kept2, err := os.ReadFile(filepath.Join(dir, "prop37.snap.unsupported-version")); err != nil || !bytes.Equal(kept2, legacySnapshot) {
		t.Fatalf("re-create disturbed the quarantined copy: %v", err)
	}
	if kept, err := os.ReadFile(filepath.Join(dir, "prop37.journal.unsupported-version")); err != nil || !bytes.Equal(kept, acked) {
		t.Fatalf("the quarantined snapshot's journal is lost or changed: %v", err)
	}
}

// TestQuarantineDoesNotClobberEarlierCopy: an upgrade → rollback →
// upgrade cycle quarantines twice under the same topic name; the second
// quarantine must pick a fresh slot, not overwrite the first copy.
func TestQuarantineDoesNotClobberEarlierCopy(t *testing.T) {
	dir := t.TempDir()
	first := append([]byte("first"), legacySnapshot...)
	if err := os.WriteFile(filepath.Join(dir, "prop37.snap.unsupported-version"), first, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "prop37.snap"), legacySnapshot, 0o644); err != nil {
		t.Fatal(err)
	}
	testServer(t, dir)
	if kept, err := os.ReadFile(filepath.Join(dir, "prop37.snap.unsupported-version")); err != nil || !bytes.Equal(kept, first) {
		t.Fatalf("earlier quarantined copy clobbered: %v", err)
	}
	if kept, err := os.ReadFile(filepath.Join(dir, "prop37.snap.unsupported-version.1")); err != nil || !bytes.Equal(kept, legacySnapshot) {
		t.Fatalf("second quarantine copy wrong: %v", err)
	}
}

// TestMaxBodyBytes covers the -max-body-bytes limit on every body-bearing
// endpoint: oversized requests die with 413 body_too_large (a stable code
// the client can branch on: split the batch, don't blindly re-send), and
// requests under the limit are unaffected.
func TestMaxBodyBytes(t *testing.T) {
	s, err := newServer("", serverOptions{maxBody: 4096}, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	client := srv.Client()

	_, req := synthTopic(t, 31)
	if code, err := doJSON(client, "POST", srv.URL+"/v1/topics", req, nil); err != nil || code != http.StatusCreated {
		t.Fatalf("small create: %d %v", code, err)
	}

	// An oversized batch.
	big := batchRequest{Time: 1}
	for i := 0; i < 400; i++ {
		big.Tweets = append(big.Tweets, tweetSpec{Text: "padding padding padding padding", User: 0})
	}
	code, ec := errCode(t, client, "POST", srv.URL+"/v1/topics/"+req.Name+"/batches", big)
	if code != http.StatusRequestEntityTooLarge || ec != codeBodyTooLarge {
		t.Fatalf("oversized batch: %d %q, want 413 %q", code, ec, codeBodyTooLarge)
	}

	// An oversized create.
	bigCreate := req
	bigCreate.Name = "big"
	for i := 0; i < 2000; i++ {
		bigCreate.Users = append(bigCreate.Users, fmt.Sprintf("filler-user-%06d", i))
	}
	code, ec = errCode(t, client, "POST", srv.URL+"/v1/topics", bigCreate)
	if code != http.StatusRequestEntityTooLarge || ec != codeBodyTooLarge {
		t.Fatalf("oversized create: %d %q", code, ec)
	}

	// An oversized snapshot PUT (binary path, not JSON).
	hreq, err := http.NewRequest(http.MethodPut, srv.URL+"/v1/topics/restored", bytes.NewReader(make([]byte, 64<<10)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge || eb.Error.Code != codeBodyTooLarge {
		t.Fatalf("oversized snapshot: %d %q", resp.StatusCode, eb.Error.Code)
	}

	// An oversized vocab warm-up.
	var texts []string
	for i := 0; i < 300; i++ {
		texts = append(texts, "sufficiently long warmup text to overflow the configured limit")
	}
	code, ec = errCode(t, client, "POST", srv.URL+"/v1/topics/"+req.Name+"/vocab", vocabRequest{Texts: texts})
	if code != http.StatusRequestEntityTooLarge || ec != codeBodyTooLarge {
		t.Fatalf("oversized vocab: %d %q", code, ec)
	}

	// The topic is untouched by all the rejected bodies.
	var sum topicSummary
	if code, err := doJSON(client, "GET", srv.URL+"/v1/topics/"+req.Name, nil, &sum); err != nil || code != http.StatusOK {
		t.Fatalf("info: %d %v", code, err)
	}
	if sum.Batches != 0 {
		t.Fatalf("rejected bodies changed state: %+v", sum)
	}
}

// TestHealthzQuarantineCount: startup quarantine used to be visible only
// by listing the data directory; now GET /v1/healthz reports how many
// files the loader refused to serve, alongside the topic count.
func TestHealthzQuarantineCount(t *testing.T) {
	dir := t.TempDir()

	// One healthy topic, persisted by a first daemon instance.
	{
		s, err := newServer(dir, serverOptions{journal: store.Options{Every: 1}}, t.Logf)
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(s)
		_, req := synthTopic(t, 77)
		if code, err := doJSON(srv.Client(), "POST", srv.URL+"/v1/topics", req, nil); err != nil || code != http.StatusCreated {
			t.Fatalf("create: %d %v", code, err)
		}
		srv.Close()
	}
	// Two poisoned files beside it: an undecodable snapshot and an
	// undecodable journal for a topic whose snapshot is healthy.
	if err := os.WriteFile(filepath.Join(dir, "garbage.snap"), []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "topic-77.journal"), []byte("not a journal"), 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := newServer(dir, serverOptions{journal: store.Options{Every: 4}}, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)

	var hr healthResponse
	code, err := doJSON(srv.Client(), "GET", srv.URL+"/v1/healthz", nil, &hr)
	if err != nil || code != http.StatusOK {
		t.Fatalf("healthz: %d %v", code, err)
	}
	if hr.Status != "ok" || hr.Topics != 1 {
		t.Fatalf("healthz %+v, want ok with 1 topic", hr)
	}
	if hr.Quarantined != 2 {
		t.Fatalf("quarantined %d, want 2 (bad snapshot + bad journal)", hr.Quarantined)
	}
	if hr.Cluster != nil {
		t.Fatalf("single-process healthz advertises a cluster: %+v", hr.Cluster)
	}
}
