package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"runtime"
	"sync"
	"testing"
	"time"

	"triclust/internal/fault"
	"triclust/internal/store"
	"triclust/internal/synth"
)

// userReadBody is the wire shape of GET /v1/topics/{t}/users/{u}.
type userReadBody struct {
	User        int             `json:"user"`
	Class       int             `json:"class"`
	ClassName   string          `json:"class_name"`
	Confidence  float64         `json:"confidence"`
	Convergence convergenceJSON `json:"convergence"`
}

var etagShape = regexp.MustCompile(`^"b\d+-r[0-9a-f]+-e\d+"$`)

// TestReadPlaneETagContract pins the HTTP caching contract of the read
// endpoints: strong per-view ETags, Cache-Control, the If-None-Match →
// 304 fast path (including weak-prefixed, list and "*" candidates),
// convergence fields in every body, ETag movement on new batches, and
// the healthz read-plane counters that observe it all.
func TestReadPlaneETagContract(t *testing.T) {
	srv := front(t, serve(t, "", serverOptions{}, false))
	client := srv.Client()
	jtCreate(t, client, srv.URL)
	jtFeed(t, client, srv.URL, 0, 3)
	base := srv.URL + "/v1/topics/" + journalTopicName

	// The hot read: a user estimate with caching headers and convergence.
	r := call(t, client, "GET", base+"/users/0", nil, nil)
	if r.code != http.StatusOK || !etagShape.MatchString(r.etag) || r.hdr.Get("Cache-Control") != readCacheControl {
		t.Fatalf("user read: status %d etag %q cc %q", r.code, r.etag, r.hdr.Get("Cache-Control"))
	}
	var ub userReadBody
	if err := json.Unmarshal(r.body, &ub); err != nil {
		t.Fatalf("user body %q: %v", r.body, err)
	}
	if ub.User != 0 || ub.ClassName == "" {
		t.Fatalf("user body %+v", ub)
	}
	if ub.Convergence.Batches != 3 || ub.Convergence.Delta < 0 || ub.Convergence.Delta > 1 {
		t.Fatalf("user convergence %+v", ub.Convergence)
	}
	switch ub.Convergence.State {
	case "warming", "converging", "steady":
	default:
		t.Fatalf("user convergence state %q", ub.Convergence.State)
	}
	etag := r.etag

	// Conditional requests: exact, weak-prefixed, list and "*" match; a
	// mismatch re-serves the body.
	for _, inm := range []string{etag, "W/" + etag, `"zzz", ` + etag, "*"} {
		c := call(t, client, "GET", base+"/users/0", nil, nil, "If-None-Match", inm)
		if c.code != http.StatusNotModified || c.etag != etag || len(c.body) != 0 {
			t.Fatalf("If-None-Match %q: status %d etag %q body %q", inm, c.code, c.etag, c.body)
		}
	}
	if c := call(t, client, "GET", base+"/users/0", nil, nil, "If-None-Match", `"zzz"`); c.code != http.StatusOK {
		t.Fatalf("mismatched If-None-Match: status %d", c.code)
	}

	// Features: same view, same ETag; repeated polls serve identical
	// bytes (the body is cached per ETag) and revalidate to 304.
	f1 := call(t, client, "GET", base+"/features", nil, nil)
	f2 := call(t, client, "GET", base+"/features", nil, nil)
	if f1.code != http.StatusOK || f1.etag != etag || string(f1.body) != string(f2.body) {
		t.Fatalf("features: status %d etag %q (want %q), stable body %v",
			f1.code, f1.etag, etag, string(f1.body) == string(f2.body))
	}
	var fb featuresResponse
	if err := json.Unmarshal(f1.body, &fb); err != nil {
		t.Fatalf("features body: %v", err)
	}
	if len(fb.Vocabulary) == 0 || len(fb.Features) != len(fb.Vocabulary) || fb.Convergence == nil {
		t.Fatalf("features body: %d words, %d features, convergence %v",
			len(fb.Vocabulary), len(fb.Features), fb.Convergence)
	}
	if c := call(t, client, "GET", base+"/features", nil, nil, "If-None-Match", etag); c.code != http.StatusNotModified {
		t.Fatalf("features revalidation: status %d", c.code)
	}

	// Topic info: same ETag contract, convergence in the summary.
	ir := call(t, client, "GET", base, nil, nil)
	if ir.code != http.StatusOK || ir.etag != etag {
		t.Fatalf("info: status %d etag %q", ir.code, ir.etag)
	}
	var sum topicSummary
	if err := json.Unmarshal(ir.body, &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Convergence == nil || sum.Convergence.Batches != 3 {
		t.Fatalf("info convergence %+v", sum.Convergence)
	}
	if c := call(t, client, "GET", base, nil, nil, "If-None-Match", etag); c.code != http.StatusNotModified {
		t.Fatalf("info revalidation: status %d", c.code)
	}

	// A new batch moves the validator: the stale ETag stops matching and
	// the fresh body reports the new batch counter.
	jtFeed(t, client, srv.URL, 3, 4)
	c := call(t, client, "GET", base+"/users/0", nil, nil, "If-None-Match", etag)
	if c.code != http.StatusOK || c.etag == etag {
		t.Fatalf("after batch: status %d etag %q (stale %q)", c.code, c.etag, etag)
	}
	if err := json.Unmarshal(c.body, &ub); err != nil {
		t.Fatal(err)
	}
	if ub.Convergence.Batches != 4 {
		t.Fatalf("after batch: convergence %+v", ub.Convergence)
	}

	// Error paths keep their codes.
	if r := call(t, client, "GET", base+"/users/999", nil, nil); r.code != http.StatusNotFound || r.ec != codeUserNotFound {
		t.Fatalf("unknown user: %d %q", r.code, r.ec)
	}
	if r := call(t, client, "GET", base+"/users/abc", nil, nil); r.code != http.StatusBadRequest || r.ec != codeInvalidRequest {
		t.Fatalf("bad user id: %d %q", r.code, r.ec)
	}

	// healthz observes the traffic: reads counted, 304s counted, and the
	// one topic classified into exactly one convergence bucket.
	var hr healthResponse
	if r := call(nil, client, "GET", srv.URL+"/v1/healthz", nil, &hr); r.err != nil || r.code != http.StatusOK {
		t.Fatalf("healthz: %d %v", r.code, r.err)
	}
	rp := hr.ReadPlane
	if rp == nil || rp.Reads < 10 || rp.NotModified < 6 {
		t.Fatalf("read-plane stats %+v", rp)
	}
	if rp.Warming+rp.Converging+rp.Steady != 1 {
		t.Fatalf("convergence census %+v", rp)
	}
}

// TestReadPlaneETagStableAcrossRestart pins the validator's durability
// leg: a daemon restarted from snapshot + journal replay publishes a
// view with the same stream fingerprint, so the ETag — and the cached
// client state keyed on it — survives the restart, and a poll with the
// pre-restart validator still answers 304.
func TestReadPlaneETagStableAcrossRestart(t *testing.T) {
	opts := store.Options{Every: 1 << 20, MaxBytes: 1 << 40} // force replay on restart
	dir := t.TempDir()
	srvA := front(t, serve(t, dir, serverOptions{journal: opts}, false))
	jtCreate(t, srvA.Client(), srvA.URL)
	jtFeed(t, srvA.Client(), srvA.URL, 0, 6)
	before := call(t, srvA.Client(), "GET", srvA.URL+"/v1/topics/"+journalTopicName+"/users/0", nil, nil)
	if before.code != http.StatusOK {
		t.Fatalf("pre-restart read: %d", before.code)
	}
	srvA.Close()

	srvB := front(t, serve(t, dir, serverOptions{journal: opts}, false))
	after := call(t, srvB.Client(), "GET", srvB.URL+"/v1/topics/"+journalTopicName+"/users/0", nil, nil)
	if after.code != http.StatusOK || after.etag != before.etag || string(after.body) != string(before.body) {
		t.Fatalf("post-replay read: status %d etag %q body %q, want etag %q body %q",
			after.code, after.etag, after.body, before.etag, before.body)
	}
	if c := call(t, srvB.Client(), "GET", srvB.URL+"/v1/topics/"+journalTopicName+"/users/0", nil, nil, "If-None-Match", before.etag); c.code != http.StatusNotModified {
		t.Fatalf("pre-restart validator after replay: status %d, want 304", c.code)
	}
}

// nullResponseWriter discards a response, so handler allocations can be
// measured without httptest recorder noise.
type nullResponseWriter struct{ h http.Header }

func (w *nullResponseWriter) Header() http.Header         { return w.h }
func (w *nullResponseWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *nullResponseWriter) WriteHeader(int)             {}

// TestReadPlaneServeAllocs pins the pooled read-path encoding at the
// ServeHTTP level: a revalidation (304) costs only routing plus the
// ETag/header strings that escape into the response, and a full 200
// costs little more — no per-request JSON machinery.
func TestReadPlaneServeAllocs(t *testing.T) {
	s := serve(t, "", serverOptions{}, false)
	srv := front(t, s)
	jtCreate(t, srv.Client(), srv.URL)
	jtFeed(t, srv.Client(), srv.URL, 0, 3)

	r := call(t, srv.Client(), "GET", srv.URL+"/v1/topics/"+journalTopicName+"/users/0", nil, nil)
	if r.code != http.StatusOK {
		t.Fatalf("warm read: %d", r.code)
	}

	w := &nullResponseWriter{h: make(http.Header)}
	fresh := httptest.NewRequest("GET", "/v1/topics/"+journalTopicName+"/users/0", nil)
	cond := httptest.NewRequest("GET", "/v1/topics/"+journalTopicName+"/users/0", nil)
	cond.Header.Set("If-None-Match", r.etag)

	condAllocs := testing.AllocsPerRun(200, func() { s.ServeHTTP(w, cond) })
	freshAllocs := testing.AllocsPerRun(200, func() { s.ServeHTTP(w, fresh) })
	t.Logf("user read allocs: %.1f revalidated (304), %.1f full (200)", condAllocs, freshAllocs)
	if condAllocs > 12 {
		t.Fatalf("304 path allocates %.1f per request, want <= 12 (measured 6)", condAllocs)
	}
	if freshAllocs > 16 {
		t.Fatalf("200 path allocates %.1f per request, want <= 16 (measured 7)", freshAllocs)
	}
}

// TestReadPlaneDuringRefusedAppend races the lock-free readers against
// a batch whose journal append fails — a batch the topic solves and then
// drops. Readers must keep getting well-formed responses throughout —
// the -race proof that a dropped solve touches nothing the read plane
// loads without the topic lock — and afterwards the validator is still
// the last durable one: the topic never published the refused batch.
func TestReadPlaneDuringRefusedAppend(t *testing.T) {
	script := fault.NewScript()
	s := serve(t, t.TempDir(), serverOptions{journal: store.Options{Every: 100}, fs: script}, true)
	hs := front(t, s)
	client := hs.Client()

	d, req := synthTopic(t, 41)
	if r := call(nil, client, "POST", hs.URL+"/v1/topics", req, nil); r.err != nil || r.code != http.StatusCreated {
		t.Fatalf("create: %d %v", r.code, r.err)
	}
	url := hs.URL + "/v1/topics/" + req.Name + "/batches"
	for day := 1; day <= 2; day++ {
		if r := call(nil, client, "POST", url, batchRequest{Time: day, Tweets: dayTweets(d, day)}, nil); r.err != nil || r.code != http.StatusOK {
			t.Fatalf("day %d: %d %v", day, r.code, r.err)
		}
	}
	durable := call(t, client, "GET", hs.URL+"/v1/topics/"+req.Name+"/users/0", nil, nil)
	if durable.code != http.StatusOK || durable.etag == "" {
		t.Fatalf("pre-failure read: %+v", durable)
	}

	stop := make(chan struct{})
	fail := make(chan string, 8)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if et := call(nil, s, "GET", "/v1/topics/"+req.Name+"/users/0", nil, nil).etag; !etagShape.MatchString(et) {
					select {
					case fail <- fmt.Sprintf("malformed ETag during the refused append: %q", et):
					default:
					}
					return
				}
			}
		}()
	}

	// Sabotage the journal writer and send the batch it refuses while the
	// readers hammer the topic.
	sabotageJournal(script)
	day3 := batchRequest{Time: 3, Tweets: dayTweets(d, 3)}
	if r := call(t, client, "POST", url, day3, nil); r.code != http.StatusServiceUnavailable || r.ec != codeStorageDegraded || r.hdr.Get("Retry-After") != "1" {
		t.Fatalf("batch on dead journal: %d %q (Retry-After %q), want 503 %q (Retry-After 1)", r.code, r.ec, r.hdr.Get("Retry-After"), codeStorageDegraded)
	}

	close(stop)
	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}

	// The topic still serves the last durable view: same validator, so a
	// conditional poll on the pre-failure ETag still answers 304.
	after := call(t, client, "GET", hs.URL+"/v1/topics/"+req.Name+"/users/0", nil, nil, "If-None-Match", durable.etag)
	if after.code != http.StatusNotModified {
		t.Fatalf("conditional poll after the refused append: %d (etag %q vs durable %q), want 304",
			after.code, after.etag, durable.etag)
	}
}

// syncReadFS is a fault.Script whose journal-append fsync first runs
// read: a request served while a batch's fsync is in flight.
type syncReadFS struct {
	*fault.Script
	read func()
}

func (fs *syncReadFS) OpenFile(site, name string, flag int, perm os.FileMode) (fault.File, error) {
	f, err := fs.Script.OpenFile(site, name, flag, perm)
	if err != nil {
		return nil, err
	}
	return syncReadFile{f, fs}, nil
}

type syncReadFile struct {
	fault.File
	fs *syncReadFS
}

func (f syncReadFile) Sync(site string) error {
	if site == "journal.append.sync" && f.fs.read != nil {
		f.fs.read()
	}
	return f.File.Sync(site)
}

// TestNoReadSeesABatchBeforeItsFsync: a read served while a batch's
// journal fsync is in flight answers the pre-batch ETag, whether the sync
// then succeeds or fails — a topic publishes a batch only once the
// journal holds it. Afterwards the ETag is the new batch's if the sync
// succeeded and still the pre-batch one if it failed.
func TestNoReadSeesABatchBeforeItsFsync(t *testing.T) {
	for _, fails := range []bool{false, true} {
		t.Run(fmt.Sprintf("sync fails=%v", fails), func(t *testing.T) {
			fs := &syncReadFS{Script: fault.NewScript()}
			s := serve(t, t.TempDir(), serverOptions{journal: store.Options{Every: 100}, fs: fs}, true)
			const name = "inflight"
			users0 := "/v1/topics/" + name + "/users/0"
			etag := func() string { return call(t, s, "GET", users0, nil, nil).etag }
			if rec := call(t, s, "POST", "/v1/topics", degradeCreateReq(name), nil); rec.code != http.StatusCreated {
				t.Fatalf("create: %d %s", rec.code, rec.body)
			}
			if rec := call(t, s, "POST", "/v1/topics/"+name+"/batches", degradeBatch(1), nil); rec.code != http.StatusOK {
				t.Fatalf("batch 1: %d %s", rec.code, rec.body)
			}
			pre, want := etag(), http.StatusOK
			if fails {
				fs.AddRule(fault.Rule{Site: "journal.append.sync", Hit: fs.Hits("journal.append.sync") + 1, Err: errors.New("injected sync failure")})
				want = http.StatusServiceUnavailable
			}
			inflight := ""
			fs.read = func() { inflight = etag() }
			rec := call(t, s, "POST", "/v1/topics/"+name+"/batches", degradeBatch(2), nil)
			fs.read = nil
			if rec.code != want {
				t.Fatalf("batch 2: %d %s, want %d", rec.code, rec.body, want)
			}
			if inflight != pre {
				t.Fatalf("a read during batch 2's fsync answered ETag %q, want the pre-batch %q", inflight, pre)
			}
			if post := etag(); (post != pre) == fails {
				t.Fatalf("ETag after batch 2 %q (pre-batch %q) with the sync failing = %v", post, pre, fails)
			}
		})
	}
}

// TestReadPlaneSeesVocabFreeze: an explicit freeze changes what the topic
// summary reports (frozen, vocab_size), so it republishes the view and —
// the stream fingerprint being unchanged before the first batch — moves the
// validator: a client revalidating with the pre-freeze ETag is re-served,
// not told 304 about a body that says "unfrozen, empty vocabulary".
func TestReadPlaneSeesVocabFreeze(t *testing.T) {
	srv := front(t, serve(t, "", serverOptions{}, false))
	client := srv.Client()
	req := createTopicRequest{Name: "warm", Users: []string{"a"}, Options: topicOptions{MinDF: 1, MaxIter: 5}}
	if r := call(nil, client, "POST", srv.URL+"/v1/topics", req, nil); r.err != nil || r.code != http.StatusCreated {
		t.Fatalf("create: %d %v", r.code, r.err)
	}
	url := srv.URL + "/v1/topics/warm"
	before := call(t, client, "GET", url, nil, nil)
	if before.code != http.StatusOK || !etagShape.MatchString(before.etag) {
		t.Fatalf("pre-freeze read: status %d etag %q", before.code, before.etag)
	}
	if r := call(nil, client, "POST", url+"/vocab", vocabRequest{Texts: []string{"label gmo ballot"}, Freeze: true}, nil); r.err != nil || r.code != http.StatusOK {
		t.Fatalf("freeze: %d %v", r.code, r.err)
	}
	after := call(t, client, "GET", url, nil, nil, "If-None-Match", before.etag)
	if after.code != http.StatusOK || after.etag == before.etag {
		t.Fatalf("revalidation across the freeze: status %d etag %q (pre-freeze %q), want 200 and a new validator",
			after.code, after.etag, before.etag)
	}
	var sum topicSummary
	if err := json.Unmarshal(after.body, &sum); err != nil {
		t.Fatal(err)
	}
	if !sum.Frozen || sum.VocabSize != 3 {
		t.Fatalf("summary after the freeze: frozen=%v vocab_size=%d, want true/3", sum.Frozen, sum.VocabSize)
	}
	// From the first batch on the validator is the stream fingerprint alone.
	if r := call(nil, client, "POST", url+"/batches",
		batchRequest{Time: 0, Tweets: []tweetSpec{{Text: "label gmo today", User: 0}}}, nil); r.err != nil || r.code != http.StatusOK {
		t.Fatalf("batch after freeze: %d %v", r.code, r.err)
	}
	if r := call(t, client, "GET", url, nil, nil, "If-None-Match", after.etag); r.code != http.StatusOK || !etagShape.MatchString(r.etag) {
		t.Fatalf("read after the first batch: status %d etag %q", r.code, r.etag)
	}
}

// TestFeaturesOfAViewBeforeItsFreeze: a first batch freezes the engine's
// vocabulary in its commit, before it publishes its view, so a /features
// body built meanwhile for the batch-0 view must carry no vocabulary — a
// torn read TestClusterSim's concurrent event found. Here the window is
// held open: the view is taken before the batch and rendered after it.
func TestFeaturesOfAViewBeforeItsFreeze(t *testing.T) {
	tp := &topic{name: "t", eng: controlTopic(t, harnessCreateReq(1))}
	v := tp.eng.ReadView()
	req := harnessBatch(1, 1)
	if _, err := tp.eng.Process(req.Time, specTweets(req)); err != nil {
		t.Fatal(err)
	}
	var got featuresResponse
	if body, err := marshalFeatures(tp, v); err != nil || json.Unmarshal(body, &got) != nil || len(got.Vocabulary) != 0 {
		t.Fatalf("features of the batch-0 view once the first batch froze the vocabulary: %s %v", body, err)
	}
}

// TestHealthzAnswersDuringSolve: with replication on, /v1/healthz is the
// failure detector's probe target and /v1/cluster/info?topic= the
// placement query every move and promotion asks — neither may wait for a
// number behind a solve, or a shard that is merely busy gets declared down
// and fenced. Asserted by order: once the batch's write holds the topic
// lock — the solve is nearly all of that hold — both endpoints are asked
// against it, and must answer before the solve commits (the published view
// still counts no batch), let alone before the batch POST does. No probe
// interferes (interval: an hour).
func TestHealthzAnswersDuringSolve(t *testing.T) {
	tc := newCluster(t, 2, serverOptions{
		repl:       &replOptions{Factor: 2},
		peer:       fastPeer(nil),
		probeEvery: time.Hour,
	}, true)
	cfg := synth.DefaultConfig()
	cfg.Seed, cfg.NumUsers, cfg.Days = 41, 1500, 8
	d, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	create := createTopicRequest{Name: harnessTopicName(3)}
	for _, u := range d.Corpus.Users {
		create.Users = append(create.Users, u.Name)
	}
	batch := batchRequest{Time: 0}
	for _, tw := range d.Corpus.Tweets {
		batch.Tweets = append(batch.Tweets, tweetSpec{Tokens: tw.Tokens, User: tw.User})
	}
	owner := tc.ownerIdx(create.Name)
	tc.retryJSON("POST", tc.url(owner)+"/v1/topics", create, nil, http.StatusCreated)
	tp := servedTopic(tc.shards[owner].srv, create.Name)
	if tp == nil {
		t.Fatalf("shard %d does not serve %q", owner, create.Name)
	}

	done := make(chan string, 1)
	go func() {
		r := call(nil, tc.client, "POST", tc.url(owner)+"/v1/topics/"+create.Name+"/batches", batch, nil)
		done <- fmt.Sprintf("%d %v", r.code, r.err)
	}()
	for tp.mu.TryLock() {
		tp.mu.Unlock()
		runtime.Gosched()
	}
	var hr healthResponse
	if r := call(nil, tc.client, "GET", tc.url(owner)+"/v1/healthz", nil, &hr); r.err != nil || r.code != http.StatusOK || hr.Replication == nil {
		t.Errorf("healthz during the solve: %d %v %+v", r.code, r.err, hr.Replication)
	}
	var info clusterInfoResponse
	if r := call(nil, tc.client, "GET", tc.url(owner)+"/v1/cluster/info?topic="+create.Name, nil, &info); r.err != nil ||
		r.code != http.StatusOK || info.Topic == nil || !info.Topic.Local {
		t.Errorf("cluster info during the solve: %d %v %+v", r.code, r.err, info.Topic)
	}
	if n := tp.eng.ReadView().Batches(); n != 0 {
		t.Fatalf("healthz and cluster/info answered after the solve committed (%d batch published): they waited on it, or the batch is too small to tell", n)
	}
	select {
	case res := <-done:
		t.Fatalf("the batch POST (%s) answered before healthz and cluster/info did", res)
	default:
	}
	if res := <-done; res != "200 <nil>" {
		t.Fatalf("batch POST: %s", res)
	}
}
