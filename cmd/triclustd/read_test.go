package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"triclust/internal/fault"
	"triclust/internal/store"
	"triclust/internal/synth"
)

// readResp is one observed read-plane response.
type readResp struct {
	status int
	etag   string
	cc     string
	body   []byte
}

// getRead issues one read with an optional If-None-Match and returns the
// caching-relevant parts.
func getRead(t *testing.T, client *http.Client, url, inm string) readResp {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s read: %v", url, err)
	}
	return readResp{
		status: resp.StatusCode,
		etag:   resp.Header.Get("ETag"),
		cc:     resp.Header.Get("Cache-Control"),
		body:   body,
	}
}

// userReadBody is the wire shape of GET /v1/topics/{t}/users/{u}.
type userReadBody struct {
	User        int             `json:"user"`
	Class       int             `json:"class"`
	ClassName   string          `json:"class_name"`
	Confidence  float64         `json:"confidence"`
	Convergence convergenceJSON `json:"convergence"`
}

var etagShape = regexp.MustCompile(`^"b\d+-r[0-9a-f]+-e\d+"$`)

// etagEpoch extracts the epoch component of a read-plane ETag.
func etagEpoch(etag string) (uint64, bool) {
	i := strings.LastIndex(etag, "-e")
	if i < 0 || !strings.HasSuffix(etag, `"`) {
		return 0, false
	}
	e, err := strconv.ParseUint(etag[i+2:len(etag)-1], 10, 64)
	return e, err == nil
}

// TestReadPlaneETagContract pins the HTTP caching contract of the read
// endpoints: strong per-view ETags, Cache-Control, the If-None-Match →
// 304 fast path (including weak-prefixed, list and "*" candidates),
// convergence fields in every body, ETag movement on new batches, and
// the healthz read-plane counters that observe it all.
func TestReadPlaneETagContract(t *testing.T) {
	_, srv := testServer(t, "")
	client := srv.Client()
	jtCreate(t, client, srv.URL)
	jtFeed(t, client, srv.URL, 0, 3)
	base := srv.URL + "/v1/topics/" + journalTopicName

	// The hot read: a user estimate with caching headers and convergence.
	r := getRead(t, client, base+"/users/0", "")
	if r.status != http.StatusOK || !etagShape.MatchString(r.etag) || r.cc != readCacheControl {
		t.Fatalf("user read: status %d etag %q cc %q", r.status, r.etag, r.cc)
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
		c := getRead(t, client, base+"/users/0", inm)
		if c.status != http.StatusNotModified || c.etag != etag || len(c.body) != 0 {
			t.Fatalf("If-None-Match %q: status %d etag %q body %q", inm, c.status, c.etag, c.body)
		}
	}
	if c := getRead(t, client, base+"/users/0", `"zzz"`); c.status != http.StatusOK {
		t.Fatalf("mismatched If-None-Match: status %d", c.status)
	}

	// Features: same view, same ETag; repeated polls serve identical
	// bytes (the body is cached per ETag) and revalidate to 304.
	f1 := getRead(t, client, base+"/features", "")
	f2 := getRead(t, client, base+"/features", "")
	if f1.status != http.StatusOK || f1.etag != etag || string(f1.body) != string(f2.body) {
		t.Fatalf("features: status %d etag %q (want %q), stable body %v",
			f1.status, f1.etag, etag, string(f1.body) == string(f2.body))
	}
	var fb featuresResponse
	if err := json.Unmarshal(f1.body, &fb); err != nil {
		t.Fatalf("features body: %v", err)
	}
	if len(fb.Vocabulary) == 0 || len(fb.Features) != len(fb.Vocabulary) || fb.Convergence == nil {
		t.Fatalf("features body: %d words, %d features, convergence %v",
			len(fb.Vocabulary), len(fb.Features), fb.Convergence)
	}
	if c := getRead(t, client, base+"/features", etag); c.status != http.StatusNotModified {
		t.Fatalf("features revalidation: status %d", c.status)
	}

	// Topic info: same ETag contract, convergence in the summary.
	ir := getRead(t, client, base, "")
	if ir.status != http.StatusOK || ir.etag != etag {
		t.Fatalf("info: status %d etag %q", ir.status, ir.etag)
	}
	var sum topicSummary
	if err := json.Unmarshal(ir.body, &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Convergence == nil || sum.Convergence.Batches != 3 {
		t.Fatalf("info convergence %+v", sum.Convergence)
	}
	if c := getRead(t, client, base, etag); c.status != http.StatusNotModified {
		t.Fatalf("info revalidation: status %d", c.status)
	}

	// A new batch moves the validator: the stale ETag stops matching and
	// the fresh body reports the new batch counter.
	jtFeed(t, client, srv.URL, 3, 4)
	c := getRead(t, client, base+"/users/0", etag)
	if c.status != http.StatusOK || c.etag == etag {
		t.Fatalf("after batch: status %d etag %q (stale %q)", c.status, c.etag, etag)
	}
	if err := json.Unmarshal(c.body, &ub); err != nil {
		t.Fatal(err)
	}
	if ub.Convergence.Batches != 4 {
		t.Fatalf("after batch: convergence %+v", ub.Convergence)
	}

	// Error paths keep their codes.
	if code, ec := errCode(t, client, "GET", base+"/users/999", nil); code != http.StatusNotFound || ec != codeUserNotFound {
		t.Fatalf("unknown user: %d %q", code, ec)
	}
	if code, ec := errCode(t, client, "GET", base+"/users/abc", nil); code != http.StatusBadRequest || ec != codeInvalidRequest {
		t.Fatalf("bad user id: %d %q", code, ec)
	}

	// healthz observes the traffic: reads counted, 304s counted, and the
	// one topic classified into exactly one convergence bucket.
	var hr healthResponse
	if code, err := doJSON(client, "GET", srv.URL+"/v1/healthz", nil, &hr); err != nil || code != http.StatusOK {
		t.Fatalf("healthz: %d %v", code, err)
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
	_, srvA := testServerOpts(t, dir, opts)
	jtCreate(t, srvA.Client(), srvA.URL)
	jtFeed(t, srvA.Client(), srvA.URL, 0, 6)
	before := getRead(t, srvA.Client(), srvA.URL+"/v1/topics/"+journalTopicName+"/users/0", "")
	if before.status != http.StatusOK {
		t.Fatalf("pre-restart read: %d", before.status)
	}
	srvA.Close()

	_, srvB := testServerOpts(t, dir, opts)
	after := getRead(t, srvB.Client(), srvB.URL+"/v1/topics/"+journalTopicName+"/users/0", "")
	if after.status != http.StatusOK || after.etag != before.etag || string(after.body) != string(before.body) {
		t.Fatalf("post-replay read: status %d etag %q body %q, want etag %q body %q",
			after.status, after.etag, after.body, before.etag, before.body)
	}
	if c := getRead(t, srvB.Client(), srvB.URL+"/v1/topics/"+journalTopicName+"/users/0", before.etag); c.status != http.StatusNotModified {
		t.Fatalf("pre-restart validator after replay: status %d, want 304", c.status)
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
	s, err := newServer("", serverOptions{}, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s)
	defer srv.Close()
	jtCreate(t, srv.Client(), srv.URL)
	jtFeed(t, srv.Client(), srv.URL, 0, 3)

	r := getRead(t, srv.Client(), srv.URL+"/v1/topics/"+journalTopicName+"/users/0", "")
	if r.status != http.StatusOK {
		t.Fatalf("warm read: %d", r.status)
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

// TestClusterReadersDuringMoveAndIngest is the read-plane stress leg of
// the cluster suite (run it under -race): readers hammer user-estimate
// and feature polls — conditional ones included — while the topic keeps
// ingesting batches and is handed between the two shards repeatedly.
// Readers must never observe a torn body (batch counter moving
// backwards) or a stale-epoch view (ETag epoch moving backwards), and
// every 304 must confirm exactly the validator the reader presented.
func TestClusterReadersDuringMoveAndIngest(t *testing.T) {
	tc := newTestCluster(t, 2, serverOptions{}, false)
	name := harnessTopicName(3)
	src := tc.ownerIdx(name)
	dst := 1 - src

	var sum topicSummary
	tc.retryJSON("POST", tc.url(src)+"/v1/topics", harnessCreateReq(3), &sum, http.StatusCreated)
	for day := 1; day <= 3; day++ {
		var br batchResponse
		tc.retryJSON("POST", tc.url(src)+"/v1/topics/"+name+"/batches", harnessBatch(3, day), &br, http.StatusOK)
	}

	var (
		done     atomic.Bool
		fail     = make(chan string, 16)
		okReads  atomic.Int64
		notMod   atomic.Int64
		wg       sync.WaitGroup
		lastDay  = 3
		moveWant = 4
	)
	report := func(format string, args ...any) {
		select {
		case fail <- fmt.Sprintf(format, args...):
		default:
		}
	}

	// Readers: half conditional user polls, half feature polls, spread
	// over both shard URLs (redirects followed by tc.client).
	for rdr := 0; rdr < 4; rdr++ {
		wg.Add(1)
		go func(rdr int) {
			defer wg.Done()
			url := tc.url(rdr%2) + "/v1/topics/" + name
			if rdr%2 == 1 {
				url += "/features"
			} else {
				url += "/users/1"
			}
			lastBatches, lastEpoch := -1, uint64(0)
			etag := ""
			for !done.Load() {
				req, err := http.NewRequest("GET", url, nil)
				if err != nil {
					report("reader %d: %v", rdr, err)
					return
				}
				if etag != "" {
					req.Header.Set("If-None-Match", etag)
				}
				resp, err := tc.client.Do(req)
				if err != nil {
					continue // shard mid-handoff; retry
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					got := resp.Header.Get("ETag")
					if !etagShape.MatchString(got) {
						report("reader %d: bad etag %q", rdr, got)
						return
					}
					e, ok := etagEpoch(got)
					if !ok {
						report("reader %d: malformed etag %q", rdr, got)
						return
					}
					if e < lastEpoch {
						report("reader %d: epoch went backwards %d -> %d", rdr, lastEpoch, e)
						return
					}
					lastEpoch = e
					var conv struct {
						Convergence convergenceJSON `json:"convergence"`
					}
					if err := json.Unmarshal(body, &conv); err != nil {
						report("reader %d: torn body %q: %v", rdr, body, err)
						return
					}
					if conv.Convergence.Batches < lastBatches {
						report("reader %d: batches went backwards %d -> %d", rdr, lastBatches, conv.Convergence.Batches)
						return
					}
					lastBatches = conv.Convergence.Batches
					etag = got
					okReads.Add(1)
				case http.StatusNotModified:
					if got := resp.Header.Get("ETag"); got != etag {
						report("reader %d: 304 for %q but sent %q", rdr, got, etag)
						return
					}
					notMod.Add(1)
				default:
					// 404/409/503/redirect-cap responses are expected while
					// a hand-off commits; the invariants only bind served
					// views.
				}
			}
		}(rdr)
	}

	// Writer + mover: keep ingesting while handing the topic back and
	// forth; each move must land with a bumped epoch.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() {
			// On a loaded machine the four moves can finish before a reader
			// has come round to its first conditional poll: let the readers
			// run on (against the settled topic) until both read paths were
			// seen, so the check below judges the read plane, not the
			// scheduler.
			eventually(func() bool { return okReads.Load() > 0 && notMod.Load() > 0 })
			done.Store(true)
		}()
		owner, other := src, dst
		for move := 1; move <= moveWant; move++ {
			for i := 0; i < 2; i++ {
				lastDay++
				if !eventually(func() bool {
					var br batchResponse
					code, err := doJSON(tc.client, "POST", tc.url(owner)+"/v1/topics/"+name+"/batches", harnessBatch(3, lastDay), &br)
					return err == nil && code == http.StatusOK
				}) {
					report("writer: batch %d never accepted", lastDay)
					return
				}
			}
			var mv moveResponse
			if !eventually(func() bool {
				code, err := doJSON(tc.client, "POST", tc.url(owner)+"/v1/cluster/move",
					moveRequest{Topic: name, Target: tc.url(other)}, &mv)
				return err == nil && code == http.StatusOK
			}) {
				report("mover: move %d never committed", move)
				return
			}
			if mv.Epoch != uint64(move) {
				report("mover: move %d landed at epoch %d", move, mv.Epoch)
				return
			}
			owner, other = other, owner
		}
	}()

	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
	if okReads.Load() == 0 || notMod.Load() == 0 {
		t.Fatalf("stress observed %d full reads, %d revalidations — both paths must be exercised",
			okReads.Load(), notMod.Load())
	}
	t.Logf("stress: %d full reads, %d revalidations, %d moves", okReads.Load(), notMod.Load(), moveWant)
}

// TestReadPlaneDuringJournalRollback races the lock-free readers against
// the one write-path operation that swaps the topic's engine pointer:
// the journal-append-failure rollback (rollback reloads the
// topic from disk and stores a fresh engine). Readers must keep getting
// well-formed responses throughout — this is the -race proof that the
// engine pointer hand-off is safe without the topic lock — and after
// the rollback the validator must revert to the last durable one, per
// the README's rollback caveat.
func TestReadPlaneDuringJournalRollback(t *testing.T) {
	script := fault.NewScript()
	s, hs := faultServer(t, script, store.Options{Every: 100}, storageOptions{})
	client := hs.Client()

	d, req := synthTopic(t, 41)
	if code, err := doJSON(client, "POST", hs.URL+"/v1/topics", req, nil); err != nil || code != http.StatusCreated {
		t.Fatalf("create: %d %v", code, err)
	}
	url := hs.URL + "/v1/topics/" + req.Name + "/batches"
	for day := 1; day <= 2; day++ {
		if code, err := doJSON(client, "POST", url, batchRequest{Time: day, Tweets: dayTweets(d, day)}, nil); err != nil || code != http.StatusOK {
			t.Fatalf("day %d: %d %v", day, code, err)
		}
	}
	durable := getRead(t, client, hs.URL+"/v1/topics/"+req.Name+"/users/0", "")
	if durable.status != http.StatusOK || durable.etag == "" {
		t.Fatalf("pre-failure read: %+v", durable)
	}

	stop := make(chan struct{})
	fail := make(chan string, 8)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			readReq := httptest.NewRequest("GET", "/v1/topics/"+req.Name+"/users/0", nil)
			for {
				select {
				case <-stop:
					return
				default:
				}
				w := &nullResponseWriter{h: make(http.Header)}
				s.ServeHTTP(w, readReq)
				if et := w.h.Get("ETag"); !etagShape.MatchString(et) {
					select {
					case fail <- fmt.Sprintf("malformed ETag during rollback: %q", et):
					default:
					}
					return
				}
			}
		}()
	}

	// Sabotage the journal writer and trip the rollback while the
	// readers hammer the topic.
	sabotageJournal(script)
	day3 := batchRequest{Time: 3, Tweets: dayTweets(d, 3)}
	if code, ec := errCode(t, client, "POST", url, day3); code != http.StatusServiceUnavailable || ec != codeJournalWriteFailed {
		t.Fatalf("batch on dead journal: %d %q, want 503 %q", code, ec, codeJournalWriteFailed)
	}

	close(stop)
	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}

	// The rollback re-published the last durable view: same validator,
	// so a conditional poll on the pre-failure ETag still answers 304.
	after := getRead(t, client, hs.URL+"/v1/topics/"+req.Name+"/users/0", durable.etag)
	if after.status != http.StatusNotModified {
		t.Fatalf("post-rollback conditional poll: %d (etag %q vs durable %q), want 304",
			after.status, after.etag, durable.etag)
	}
}

// TestReadPlaneSeesVocabFreeze: an explicit freeze changes what the topic
// summary reports (frozen, vocab_size), so it republishes the view and —
// the stream fingerprint being unchanged before the first batch — moves the
// validator: a client revalidating with the pre-freeze ETag is re-served,
// not told 304 about a body that says "unfrozen, empty vocabulary".
func TestReadPlaneSeesVocabFreeze(t *testing.T) {
	_, srv := testServer(t, "")
	client := srv.Client()
	req := createTopicRequest{Name: "warm", Users: []string{"a"}, Options: topicOptions{MinDF: 1, MaxIter: 5}}
	if code, err := doJSON(client, "POST", srv.URL+"/v1/topics", req, nil); err != nil || code != http.StatusCreated {
		t.Fatalf("create: %d %v", code, err)
	}
	url := srv.URL + "/v1/topics/warm"
	before := getRead(t, client, url, "")
	if before.status != http.StatusOK || !etagShape.MatchString(before.etag) {
		t.Fatalf("pre-freeze read: status %d etag %q", before.status, before.etag)
	}
	if code, err := doJSON(client, "POST", url+"/vocab", vocabRequest{Texts: []string{"label gmo ballot"}, Freeze: true}, nil); err != nil || code != http.StatusOK {
		t.Fatalf("freeze: %d %v", code, err)
	}
	after := getRead(t, client, url, before.etag)
	if after.status != http.StatusOK || after.etag == before.etag {
		t.Fatalf("revalidation across the freeze: status %d etag %q (pre-freeze %q), want 200 and a new validator",
			after.status, after.etag, before.etag)
	}
	var sum topicSummary
	if err := json.Unmarshal(after.body, &sum); err != nil {
		t.Fatal(err)
	}
	if !sum.Frozen || sum.VocabSize != 3 {
		t.Fatalf("summary after the freeze: frozen=%v vocab_size=%d, want true/3", sum.Frozen, sum.VocabSize)
	}
	// From the first batch on the validator is the stream fingerprint alone.
	if code, err := doJSON(client, "POST", url+"/batches",
		batchRequest{Time: 0, Tweets: []tweetSpec{{Text: "label gmo today", User: 0}}}, nil); err != nil || code != http.StatusOK {
		t.Fatalf("batch after freeze: %d %v", code, err)
	}
	if r := getRead(t, client, url, after.etag); r.status != http.StatusOK || !etagShape.MatchString(r.etag) {
		t.Fatalf("read after the first batch: status %d etag %q", r.status, r.etag)
	}
}

// TestHealthzAnswersDuringSolve: with replication on, /v1/healthz is the
// failure detector's probe target and /v1/cluster/info?topic= the
// placement query every move and promotion asks — neither may wait for a
// number behind a solve, or a shard that is merely busy gets declared down
// and fenced. Asserted by order: the topic's first batch freezes the
// vocabulary inside Process, under the engine's locks, so once Vocabulary
// shows it both endpoints are asked against a held lock, and must answer
// before the solve commits (the published view still counts no batch), let
// alone before the batch POST does. No probe interferes (interval: an hour).
func TestHealthzAnswersDuringSolve(t *testing.T) {
	tc := newTestCluster(t, 2, serverOptions{
		repl: &replOptions{Factor: 2, ProbeInterval: time.Hour},
		peer: fastPeer(nil),
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
	tp := tc.shards[owner].srv.resolve(create.Name).tp
	if tp == nil {
		t.Fatalf("shard %d does not serve %q", owner, create.Name)
	}

	done := make(chan string, 1)
	go func() {
		code, err := doJSON(tc.client, "POST", tc.url(owner)+"/v1/topics/"+create.Name+"/batches", batch, nil)
		done <- fmt.Sprintf("%d %v", code, err)
	}()
	for tp.eng().Vocabulary() == nil {
		runtime.Gosched()
	}
	var hr healthResponse
	if code, err := doJSON(tc.client, "GET", tc.url(owner)+"/v1/healthz", nil, &hr); err != nil || code != http.StatusOK || hr.Replication == nil {
		t.Errorf("healthz during the solve: %d %v %+v", code, err, hr.Replication)
	}
	var info clusterInfoResponse
	if code, err := doJSON(tc.client, "GET", tc.url(owner)+"/v1/cluster/info?topic="+create.Name, nil, &info); err != nil ||
		code != http.StatusOK || info.Topic == nil || !info.Topic.Local {
		t.Errorf("cluster info during the solve: %d %v %+v", code, err, info.Topic)
	}
	if n := tp.eng().ReadView().Batches(); n != 0 {
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
