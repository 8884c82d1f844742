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
	"strings"
	"sync"
	"testing"

	"triclust"
	"triclust/internal/codec"
	"triclust/internal/fault"
	"triclust/internal/journal"
	"triclust/internal/store"
	"triclust/internal/synth"
)

// serve builds a daemon over dir ("": in memory) that logs to tb, and
// fails tb if it cannot. It starts no loop. With cleanup, tb's cleanup
// closes it; without, the test closes it itself, or leaves it where a
// scripted crash left it.
func serve(tb testing.TB, dir string, opts serverOptions, cleanup bool) *server {
	tb.Helper()
	s, err := newServer(dir, opts, tb.Logf)
	if err != nil {
		tb.Fatalf("newServer(%q): %v", dir, err)
	}
	if cleanup {
		tb.Cleanup(s.Close)
	}
	return s
}

// front puts h behind a listener that tb's cleanup closes.
func front(tb testing.TB, h http.Handler) *httptest.Server {
	hs := httptest.NewServer(h)
	tb.Cleanup(hs.Close)
	return hs
}

// reply is the answer to one request, at the end of its redirect chain.
type reply struct {
	code, hops int
	// ec is a refusal's stable error code; etag and shard are the ETag and
	// X-Triclust-Shard headers; at is the base URL of the shard that
	// answered ("" from a handler called directly).
	ec, etag, shard, at string
	hdr                 http.Header
	body                []byte
	err                 error // with a nil tb: why there is no answer
}

func (r reply) String() string { return fmt.Sprintf("%d %s (%d hops)", r.code, r.ec, r.hops) }

// hops has call follow up to n 307s from dst by hand (without hops, or
// n < 0: none, the 307 is the answer).
type hops struct {
	dst any
	n   int
}

// fronts maps base URLs to the handlers behind them, so that a 307 from a
// handler is followed in process.
var fronts sync.Map

// call sends one request to dst and reads the answer. dst is an
// http.Handler, which serves it on the caller's goroutine, so a scripted
// crash unwinds into the caller as a kill -9 would; an *http.Client, for
// which path is a full URL; or hops. Every 307 must name in
// X-Triclust-Shard the shard its Location leads to. A []byte body is sent
// as it is, any other non-nil body as JSON with Content-Type
// application/json; header adds name and value pairs (an empty value:
// none). A non-nil out decodes the body. A failure fails tb or, with a nil
// tb (a goroutine, a poll), is returned in err.
func call(tb testing.TB, dst any, method, path string, body, out any, header ...string) (r reply) {
	if tb != nil {
		tb.Helper()
		defer func() {
			if r.err != nil {
				tb.Fatalf("%s %s: %v", method, path, r.err)
			}
		}()
	}
	var data []byte
	switch b := body.(type) {
	case nil:
	case []byte:
		data = b
	default:
		var err error
		if data, err = json.Marshal(b); err != nil {
			return reply{err: err}
		}
		header = append([]string{"Content-Type", mediaTypeJSON}, header...)
	}
	maxHops := -1
	if h, ok := dst.(hops); ok {
		dst, maxHops = h.dst, h.n
	}
	var trail []string
	for ; ; r.hops++ {
		trail = append(trail, path)
		var res *http.Response
		switch d := dst.(type) {
		case http.Handler:
			req := httptest.NewRequest(method, path, bytes.NewReader(data))
			setHeader(req, header)
			rec := httptest.NewRecorder()
			d.ServeHTTP(rec, req)
			res = rec.Result()
		case *http.Client:
			req, err := http.NewRequest(method, path, bytes.NewReader(data))
			if err != nil {
				return reply{err: err}
			}
			setHeader(req, header)
			if res, err = d.Do(req); err != nil {
				return reply{err: err}
			}
			r.at = req.URL.Scheme + "://" + req.URL.Host
		default:
			return reply{err: fmt.Errorf("call: %T is no daemon", dst)}
		}
		b, err := io.ReadAll(res.Body)
		res.Body.Close()
		if err != nil {
			return reply{err: err}
		}
		r.code, r.hdr, r.body = res.StatusCode, res.Header, b
		r.etag, r.shard = res.Header.Get("ETag"), res.Header.Get(shardHeader)
		loc, _ := res.Location()
		switch {
		case r.code == http.StatusTemporaryRedirect && (loc == nil || loc.Scheme+"://"+loc.Host != r.shard):
			return reply{err: fmt.Errorf("a 307 to %v names shard %q: %s", loc, r.shard, strings.Join(trail, " → "))}
		case r.code != http.StatusTemporaryRedirect || maxHops < 0:
			var eb errorBody
			if r.code >= 400 {
				_ = json.Unmarshal(b, &eb)
			}
			r.ec = eb.Error.Code
			if out != nil {
				if err := json.Unmarshal(b, out); err != nil {
					r.err = fmt.Errorf("decode: %w", err)
				}
			}
			return r
		case r.hops == maxHops:
			return reply{err: fmt.Errorf("the redirect chain did not end within %d hops: %s", maxHops, strings.Join(trail, " → "))}
		}
		if _, ok := dst.(http.Handler); ok {
			h, ok := fronts.Load(r.shard)
			if !ok {
				return reply{err: fmt.Errorf("a 307 to %s, which no front serves", loc)}
			}
			dst, r.at = h.(http.Handler), r.shard
		}
		path = res.Header.Get("Location")
	}
}

// setHeader sets header's name and value pairs on req, but for empty values.
func setHeader(req *http.Request, header []string) {
	for i := 0; i+1 < len(header); i += 2 {
		if header[i+1] != "" {
			req.Header.Set(header[i], header[i+1])
		}
	}
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
	srv := front(t, serve(t, "", serverOptions{}, false))
	client := srv.Client()

	type topicRun struct {
		d    *synth.Dataset
		name string
	}
	var runs []topicRun
	for seed := int64(1); seed <= 2; seed++ {
		d, req := synthTopic(t, seed)
		var sum topicSummary
		r := call(nil, client, "POST", srv.URL+"/v1/topics", req, &sum)
		if r.err != nil || r.code != http.StatusCreated {
			t.Fatalf("create %s: status %d err %v", req.Name, r.code, r.err)
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
				r := call(nil, client, "POST",
					srv.URL+"/v1/topics/"+run.name+"/batches", batch, &resp)
				if r.err != nil {
					errs <- r.err
					return
				}
				if r.code != http.StatusOK {
					errs <- fmt.Errorf("%s day %d: status %d", run.name, day, r.code)
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
		r := call(nil, client, "GET", srv.URL+"/v1/topics/"+run.name, nil, &sum)
		if r.err != nil || r.code != http.StatusOK {
			t.Fatalf("info %s: status %d err %v", run.name, r.code, r.err)
		}
		if sum.Batches < 2 || sum.VocabSize == 0 || sum.KnownUsers == 0 || !sum.Frozen {
			t.Fatalf("summary %s: %+v", run.name, sum)
		}
		user := run.d.Corpus.Tweets[0].User
		var est userSentimentJSON
		r = call(nil, client, "GET",
			fmt.Sprintf("%s/v1/topics/%s/users/%d", srv.URL, run.name, user), nil, &est)
		if r.err != nil || r.code != http.StatusOK {
			t.Fatalf("estimate %s user %d: status %d err %v", run.name, user, r.code, r.err)
		}
		if est.User != user || est.Confidence < 0 || est.Confidence > 1 {
			t.Fatalf("estimate %s: %+v", run.name, est)
		}
		var feats featuresResponse
		r = call(nil, client, "GET", srv.URL+"/v1/topics/"+run.name+"/features", nil, &feats)
		if r.err != nil || r.code != http.StatusOK {
			t.Fatalf("features %s: status %d err %v", run.name, r.code, r.err)
		}
		if len(feats.Vocabulary) == 0 || len(feats.Features) != len(feats.Vocabulary) {
			t.Fatalf("features %s: %d words, %d features",
				run.name, len(feats.Vocabulary), len(feats.Features))
		}
	}

	var all []topicSummary
	if r := call(nil, client, "GET", srv.URL+"/v1/topics", nil, &all); r.err != nil || r.code != http.StatusOK {
		t.Fatalf("list: status %d err %v", r.code, r.err)
	}
	if len(all) != 2 {
		t.Fatalf("list has %d topics", len(all))
	}
}

func TestTopicLifecycleAndErrors(t *testing.T) {
	srv := front(t, serve(t, "", serverOptions{}, false))
	client := srv.Client()

	// Unknown topic → 404 with a stable code.
	if r := call(t, client, "GET", srv.URL+"/v1/topics/nope", nil, nil); r.code != http.StatusNotFound || r.ec != codeTopicNotFound {
		t.Fatalf("unknown topic: status %d code %q", r.code, r.ec)
	}
	// Create without users → 400.
	if r := call(t, client, "POST", srv.URL+"/v1/topics",
		createTopicRequest{Name: "x"}, nil); r.code != http.StatusBadRequest || r.ec != codeInvalidRequest {
		t.Fatalf("create without users: status %d code %q", r.code, r.ec)
	}
	// Bad topic name → 400 invalid_topic_name.
	if r := call(t, client, "POST", srv.URL+"/v1/topics",
		createTopicRequest{Name: "../escape", Users: []string{"a"}}, nil); r.code != http.StatusBadRequest || r.ec != codeInvalidName {
		t.Fatalf("bad name: status %d code %q", r.code, r.ec)
	}
	// Invalid configuration → 400 invalid_config.
	if r := call(t, client, "POST", srv.URL+"/v1/topics",
		createTopicRequest{Name: "bad-k", Users: []string{"a"}, Options: topicOptions{K: 9}}, nil); r.code != http.StatusBadRequest || r.ec != codeInvalidConfig {
		t.Fatalf("invalid config: status %d code %q", r.code, r.ec)
	}
	// Create, duplicate → 409.
	req := createTopicRequest{Name: "x", Users: []string{"a", "b"}}
	if r := call(nil, client, "POST", srv.URL+"/v1/topics", req, nil); r.err != nil || r.code != http.StatusCreated {
		t.Fatalf("create: status %d err %v", r.code, r.err)
	}
	if r := call(t, client, "POST", srv.URL+"/v1/topics", req, nil); r.code != http.StatusConflict || r.ec != codeTopicExists {
		t.Fatalf("duplicate create: status %d code %q", r.code, r.ec)
	}

	// Empty batch is a recorded no-op.
	var resp batchResponse
	if r := call(nil, client, "POST", srv.URL+"/v1/topics/x/batches",
		batchRequest{Time: 0}, &resp); r.err != nil || r.code != http.StatusOK || !resp.Skipped {
		t.Fatalf("empty batch: status %d skipped %v err %v", r.code, resp.Skipped, r.err)
	}
	// Invalid user index → 422 invalid_batch.
	if r := call(t, client, "POST", srv.URL+"/v1/topics/x/batches",
		batchRequest{Time: 1, Tweets: []tweetSpec{{Text: "hi", User: 9}}}, nil); r.code != http.StatusUnprocessableEntity || r.ec != codeInvalidBatch {
		t.Fatalf("invalid batch: status %d code %q", r.code, r.ec)
	}
	// Valid batch; then a stale timestamp → 409 stale_timestamp.
	if r := call(nil, client, "POST", srv.URL+"/v1/topics/x/batches",
		batchRequest{Time: 1, Tweets: []tweetSpec{
			{Text: "love love great win", User: 0},
			{Text: "love great hate awful", User: 1},
		}}, &resp); r.err != nil || r.code != http.StatusOK || resp.Skipped {
		t.Fatalf("valid batch: status %d err %v", r.code, r.err)
	}
	if r := call(t, client, "POST", srv.URL+"/v1/topics/x/batches",
		batchRequest{Time: 1, Tweets: []tweetSpec{{Text: "again", User: 0}}}, nil); r.code != http.StatusConflict || r.ec != codeStaleTimestamp {
		t.Fatalf("stale timestamp: status %d code %q", r.code, r.ec)
	}
	// User with no history → 404; delete → 204; gone → 404.
	if r := call(nil, client, "GET", srv.URL+"/v1/topics/x/users/1", nil, nil); r.code != http.StatusOK {
		t.Fatalf("active user estimate: status %d", r.code)
	}
	if r := call(t, client, "GET", srv.URL+"/v1/topics/x/users/99", nil, nil); r.code != http.StatusNotFound || r.ec != codeUserNotFound {
		t.Fatalf("unknown user estimate: status %d code %q", r.code, r.ec)
	}
	if r := call(t, client, http.MethodDelete, srv.URL+"/v1/topics/x", nil, nil); r.code != http.StatusNoContent {
		t.Fatalf("delete: status %d", r.code)
	}
	if r := call(nil, client, "GET", srv.URL+"/v1/topics/x", nil, nil); r.code != http.StatusNotFound {
		t.Fatalf("deleted topic: status %d", r.code)
	}
}

// TestVocabWarmupOverHTTP: POST /vocab seeds and freezes the vocabulary
// before any batch, and warm-up after the freeze fails with a stable code.
func TestVocabWarmupOverHTTP(t *testing.T) {
	srv := front(t, serve(t, "", serverOptions{}, false))
	client := srv.Client()
	req := createTopicRequest{Name: "warm", Users: []string{"a"}, Options: topicOptions{MinDF: 2, MaxIter: 5}}
	if r := call(nil, client, "POST", srv.URL+"/v1/topics", req, nil); r.err != nil || r.code != http.StatusCreated {
		t.Fatalf("create: %d %v", r.code, r.err)
	}
	var vr vocabResponse
	r := call(nil, client, "POST", srv.URL+"/v1/topics/warm/vocab", vocabRequest{
		Texts: []string{"label gmo ballot", "label gmo vote", "stray word"},
	}, &vr)
	if r.err != nil || r.code != http.StatusOK || vr.Frozen {
		t.Fatalf("warm-up: %d %+v %v", r.code, vr, r.err)
	}
	r = call(nil, client, "POST", srv.URL+"/v1/topics/warm/vocab", vocabRequest{Freeze: true}, &vr)
	if r.err != nil || r.code != http.StatusOK || !vr.Frozen || vr.VocabSize != 2 {
		t.Fatalf("freeze: %d %+v %v", r.code, vr, r.err)
	}
	if r := call(t, client, "POST", srv.URL+"/v1/topics/warm/vocab",
		vocabRequest{Texts: []string{"too late"}}, nil); r.code != http.StatusConflict || r.ec != codeVocabFrozen {
		t.Fatalf("post-freeze warm-up: status %d code %q", r.code, r.ec)
	}
	// Batches run against the pre-frozen vocabulary.
	var resp batchResponse
	if r := call(nil, client, "POST", srv.URL+"/v1/topics/warm/batches",
		batchRequest{Time: 0, Tweets: []tweetSpec{{Text: "label gmo today", User: 0}}}, &resp); r.err != nil || r.code != http.StatusOK || resp.Skipped {
		t.Fatalf("batch after freeze: %d %v", r.code, r.err)
	}
	var sum topicSummary
	if r := call(nil, client, "GET", srv.URL+"/v1/topics/warm", nil, &sum); r.err != nil || sum.VocabSize != 2 {
		t.Fatalf("summary after batch: %+v %v", sum, r.err)
	}
}

// TestSnapshotRestoreOverHTTP: GET …/snapshot → PUT /v1/topics/{new}
// round-trips a topic; the restored topic serves identical estimates and
// processes the next batch identically to the original.
func TestSnapshotRestoreOverHTTP(t *testing.T) {
	srv := front(t, serve(t, "", serverOptions{}, false))
	client := srv.Client()
	d, req := synthTopic(t, 5)
	if r := call(nil, client, "POST", srv.URL+"/v1/topics", req, nil); r.err != nil || r.code != http.StatusCreated {
		t.Fatalf("create: %d %v", r.code, r.err)
	}
	for day := 0; day < 3; day++ {
		if r := call(nil, client, "POST", srv.URL+"/v1/topics/"+req.Name+"/batches",
			batchRequest{Time: day, Tweets: dayTweets(d, day)}, nil); r.err != nil || r.code != http.StatusOK {
			t.Fatalf("day %d: %d %v", day, r.code, r.err)
		}
	}
	r := call(t, client, "GET", srv.URL+"/v1/topics/"+req.Name+"/snapshot", nil, nil)
	if ct := r.hdr.Get("Content-Type"); r.code != http.StatusOK || ct != "application/octet-stream" {
		t.Fatalf("snapshot: status %d content type %q", r.code, ct)
	}
	snap := r.body

	// Corrupt snapshot body → 400 invalid_snapshot, nothing registered.
	bad := append([]byte(nil), snap...)
	bad[len(bad)/2] ^= 0xff
	if r := call(t, client, http.MethodPut, srv.URL+"/v1/topics/badcopy", bad, nil); r.code != http.StatusBadRequest || r.ec != codeInvalidSnapshot {
		t.Fatalf("corrupt PUT: status %d code %q", r.code, r.ec)
	}

	// Pristine snapshot restores under a new name.
	var sum topicSummary
	if r := call(t, client, http.MethodPut, srv.URL+"/v1/topics/copy", snap, &sum); r.code != http.StatusCreated || sum.Batches != 3 || sum.Name != "copy" {
		t.Fatalf("restore: status %d summary %+v", r.code, sum)
	}

	// The next batch solves identically on the original and the copy.
	batch := batchRequest{Time: 3, Tweets: dayTweets(d, 3)}
	var orig, copied batchResponse
	if r := call(nil, client, "POST", srv.URL+"/v1/topics/"+req.Name+"/batches", batch, &orig); r.err != nil || r.code != http.StatusOK {
		t.Fatalf("original day 3: %d %v", r.code, r.err)
	}
	if r := call(nil, client, "POST", srv.URL+"/v1/topics/copy/batches", batch, &copied); r.err != nil || r.code != http.StatusOK {
		t.Fatalf("copy day 3: %d %v", r.code, r.err)
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

	s1 := serve(t, dir, serverOptions{}, false)
	srv1 := front(t, s1)
	client := srv1.Client()
	if r := call(nil, client, "POST", srv1.URL+"/v1/topics", req, nil); r.err != nil || r.code != http.StatusCreated {
		t.Fatalf("create: %d %v", r.code, r.err)
	}
	for day := 0; day < 3; day++ {
		if r := call(nil, client, "POST", srv1.URL+"/v1/topics/"+req.Name+"/batches",
			batchRequest{Time: day, Tweets: dayTweets(d, day)}, nil); r.err != nil || r.code != http.StatusOK {
			t.Fatalf("day %d: %d %v", day, r.code, r.err)
		}
	}
	var beforeSum topicSummary
	if r := call(nil, client, "GET", srv1.URL+"/v1/topics/"+req.Name, nil, &beforeSum); r.err != nil {
		t.Fatal(r.err)
	}
	before := make(map[int]userSentimentJSON)
	for u := range req.Users {
		var est userSentimentJSON
		r := call(nil, client, "GET",
			fmt.Sprintf("%s/v1/topics/%s/users/%d", srv1.URL, req.Name, u), nil, &est)
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.code == http.StatusOK {
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
	srv2 := front(t, serve(t, dir, serverOptions{}, false))
	client2 := srv2.Client()
	var afterSum topicSummary
	if r := call(nil, client2, "GET", srv2.URL+"/v1/topics/"+req.Name, nil, &afterSum); r.err != nil || r.code != http.StatusOK {
		t.Fatalf("summary after restart: %d %v", r.code, r.err)
	}
	if afterSum.Batches != beforeSum.Batches || afterSum.VocabSize != beforeSum.VocabSize {
		t.Fatalf("summary changed across restart: %+v vs %+v", beforeSum, afterSum)
	}
	if beforeSum.LastTime == nil || afterSum.LastTime == nil || *afterSum.LastTime != *beforeSum.LastTime {
		t.Fatalf("last_time lost across restart: %+v vs %+v", beforeSum.LastTime, afterSum.LastTime)
	}
	for u, want := range before {
		var got userSentimentJSON
		r := call(nil, client2, "GET",
			fmt.Sprintf("%s/v1/topics/%s/users/%d", srv2.URL, req.Name, u), nil, &got)
		if r.err != nil || r.code != http.StatusOK {
			t.Fatalf("user %d after restart: %d %v", u, r.code, r.err)
		}
		if got.Class != want.Class || math.Abs(got.Confidence-want.Confidence) > 1e-12 {
			t.Fatalf("user %d estimate changed across restart: %+v vs %+v", u, want, got)
		}
	}
	// Feature sentiments are derived from the restored factors, so the
	// endpoint serves full data after the restart too.
	var feats featuresResponse
	if r := call(nil, client2, "GET", srv2.URL+"/v1/topics/"+req.Name+"/features", nil, &feats); r.err != nil || r.code != http.StatusOK {
		t.Fatalf("features after restart: %d %v", r.code, r.err)
	}
	if len(feats.Vocabulary) == 0 || len(feats.Features) != len(feats.Vocabulary) {
		t.Fatalf("features after restart: %d words, %d features",
			len(feats.Vocabulary), len(feats.Features))
	}
	// The stream picks up where it stopped: day 2 again conflicts, day 3
	// processes.
	if r := call(t, client2, "POST", srv2.URL+"/v1/topics/"+req.Name+"/batches",
		batchRequest{Time: 2, Tweets: dayTweets(d, 2)}, nil); r.code != http.StatusConflict || r.ec != codeStaleTimestamp {
		t.Fatalf("stale day after restart: status %d code %q", r.code, r.ec)
	}
	var resp batchResponse
	if r := call(nil, client2, "POST", srv2.URL+"/v1/topics/"+req.Name+"/batches",
		batchRequest{Time: 3, Tweets: dayTweets(d, 3)}, &resp); r.err != nil || r.code != http.StatusOK {
		t.Fatalf("day 3 after restart: %d %v", r.code, r.err)
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
	srv := front(t, serve(t, dir, serverOptions{}, false))
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
					call(nil, client, http.MethodDelete, topics+"/"+name, nil, nil)
					return
				}
				call(nil, client, http.MethodPost, topics,
					createTopicRequest{Name: name, Users: users}, nil)
			}(users)
		}
		wg.Wait()

		var sum topicSummary
		r := call(nil, client, http.MethodGet, topics+"/"+name, nil, &sum)
		if r.err != nil {
			t.Fatalf("round %d: info: %v", round, r.err)
		}
		data, readErr := os.ReadFile(snap)
		switch r.code {
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
			t.Fatalf("round %d: unexpected status %d", round, r.code)
		}
		call(nil, client, http.MethodDelete, topics+"/"+name, nil, nil)
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
	srv := front(t, serve(t, dir, serverOptions{}, false))
	r := call(nil, srv.Client(), http.MethodGet, srv.URL+"/v1/topics/prop37", nil, nil)
	if r.code != http.StatusNotFound {
		t.Fatalf("legacy topic served with status %d", r.code)
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
	if r := call(nil, srv.Client(), http.MethodPost, srv.URL+"/v1/topics",
		createTopicRequest{Name: "prop37", Users: []string{"a", "b"}}, nil); r.err != nil || r.code != http.StatusCreated {
		t.Fatalf("re-create over quarantined name: %d %v", r.code, r.err)
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
	serve(t, dir, serverOptions{}, false)
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
	srv := front(t, serve(t, "", serverOptions{maxBody: 4096}, false))
	client := srv.Client()

	_, req := synthTopic(t, 31)
	if r := call(nil, client, "POST", srv.URL+"/v1/topics", req, nil); r.err != nil || r.code != http.StatusCreated {
		t.Fatalf("small create: %d %v", r.code, r.err)
	}

	// An oversized batch.
	big := batchRequest{Time: 1}
	for i := 0; i < 400; i++ {
		big.Tweets = append(big.Tweets, tweetSpec{Text: "padding padding padding padding", User: 0})
	}
	r := call(t, client, "POST", srv.URL+"/v1/topics/"+req.Name+"/batches", big, nil)
	if r.code != http.StatusRequestEntityTooLarge || r.ec != codeBodyTooLarge {
		t.Fatalf("oversized batch: %d %q, want 413 %q", r.code, r.ec, codeBodyTooLarge)
	}

	// An oversized create.
	bigCreate := req
	bigCreate.Name = "big"
	for i := 0; i < 2000; i++ {
		bigCreate.Users = append(bigCreate.Users, fmt.Sprintf("filler-user-%06d", i))
	}
	r = call(t, client, "POST", srv.URL+"/v1/topics", bigCreate, nil)
	if r.code != http.StatusRequestEntityTooLarge || r.ec != codeBodyTooLarge {
		t.Fatalf("oversized create: %d %q", r.code, r.ec)
	}

	// An oversized snapshot PUT (binary path, not JSON).
	r = call(t, client, http.MethodPut, srv.URL+"/v1/topics/restored", make([]byte, 64<<10), nil)
	if r.code != http.StatusRequestEntityTooLarge || r.ec != codeBodyTooLarge {
		t.Fatalf("oversized snapshot: %d %q", r.code, r.ec)
	}

	// An oversized vocab warm-up.
	var texts []string
	for i := 0; i < 300; i++ {
		texts = append(texts, "sufficiently long warmup text to overflow the configured limit")
	}
	r = call(t, client, "POST", srv.URL+"/v1/topics/"+req.Name+"/vocab", vocabRequest{Texts: texts}, nil)
	if r.code != http.StatusRequestEntityTooLarge || r.ec != codeBodyTooLarge {
		t.Fatalf("oversized vocab: %d %q", r.code, r.ec)
	}

	// The topic is untouched by all the rejected bodies.
	var sum topicSummary
	if r := call(nil, client, "GET", srv.URL+"/v1/topics/"+req.Name, nil, &sum); r.err != nil || r.code != http.StatusOK {
		t.Fatalf("info: %d %v", r.code, r.err)
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
		s := serve(t, dir, serverOptions{journal: store.Options{Every: 1}}, false)
		srv := httptest.NewServer(s)
		_, req := synthTopic(t, 77)
		if r := call(nil, srv.Client(), "POST", srv.URL+"/v1/topics", req, nil); r.err != nil || r.code != http.StatusCreated {
			t.Fatalf("create: %d %v", r.code, r.err)
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

	srv := front(t, serve(t, dir, serverOptions{journal: store.Options{Every: 4}}, false))

	var hr healthResponse
	r := call(nil, srv.Client(), "GET", srv.URL+"/v1/healthz", nil, &hr)
	if r.err != nil || r.code != http.StatusOK {
		t.Fatalf("healthz: %d %v", r.code, r.err)
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
