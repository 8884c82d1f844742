package main

// Wire-format contract tests for the content-negotiated batch protocol:
// the binary and JSON request formats must be semantically identical
// (same solver stream, byte-identical snapshots, same ETags), Content-
// Type must be enforced on every body-carrying endpoint, and a body in
// either format that fails to decode must change no state.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"triclust/internal/codec"
	"triclust/internal/store"
)

// binaryBatchBody frames one harness batch in the binary wire format,
// via the same wire→solver conversion the JSON path applies.
func binaryBatchBody(t *testing.T, req batchRequest) []byte {
	t.Helper()
	body, err := codec.EncodeBatchRequest(req.Time, specTweets(req))
	if err != nil {
		t.Fatalf("encode batch frame: %v", err)
	}
	return body
}

// TestVocabStrictDecode is the regression test for the lenient-decoding
// bug: warmupVocab used a streaming json.Decoder that read one value and
// silently ignored trailing garbage. Every JSON endpoint must reject a
// body that is not exactly one JSON value.
func TestVocabStrictDecode(t *testing.T) {
	srv := front(t, serve(t, "", serverOptions{}, false))
	client := srv.Client()
	_, req := synthTopic(t, 1)
	if r := call(nil, client, "POST", srv.URL+"/v1/topics", req, nil); r.err != nil || r.code != http.StatusCreated {
		t.Fatalf("create: %d %v", r.code, r.err)
	}
	url := srv.URL + "/v1/topics/" + req.Name + "/vocab"

	r := call(t, client, "POST", url, []byte(`{"texts":["warm up the vocabulary"]}{"junk":1}`), nil, "Content-Type", "application/json")
	if r.code != http.StatusBadRequest {
		t.Fatalf("trailing garbage: status %d, want 400", r.code)
	}
	if code := r.ec; code != codeInvalidRequest {
		t.Fatalf("trailing garbage: code %q, want %q", code, codeInvalidRequest)
	}
	// The rejected body must not have been half-applied: the clean prefix
	// named one text, so an applied half would have grown the vocabulary.
	var sum topicSummary
	if r := call(nil, client, "GET", srv.URL+"/v1/topics/"+req.Name, nil, &sum); r.err != nil || r.code != http.StatusOK {
		t.Fatalf("summary: %d %v", r.code, r.err)
	}
	if sum.VocabSize != 0 {
		t.Fatalf("rejected vocab body leaked %d words into the vocabulary", sum.VocabSize)
	}
	// The same body shape without the garbage is fine.
	r = call(t, client, "POST", url, []byte(`{"texts":["warm up the vocabulary"]}`), nil, "Content-Type", "application/json")
	if r.code != http.StatusOK {
		t.Fatalf("clean body: status %d, want 200", r.code)
	}
}

// TestContentTypeEnforcement drives the 415 contract across the
// body-carrying endpoints: absent or the endpoint's own format passes
// (parameters like charset tolerated), anything else is refused with
// unsupported_media_type before any state changes.
func TestContentTypeEnforcement(t *testing.T) {
	srv := front(t, serve(t, "", serverOptions{}, false))
	client := srv.Client()
	_, req := synthTopic(t, 2)
	if r := call(nil, client, "POST", srv.URL+"/v1/topics", req, nil); r.err != nil || r.code != http.StatusCreated {
		t.Fatalf("create: %d %v", r.code, r.err)
	}
	batchJSON := []byte(`{"time":1,"tweets":[{"tokens":["a","b"],"user":0}]}`)
	topicJSON := []byte(`{"name":"ct-probe","users":["u0"],"options":{"max_iter":2,"seed":1,"min_df":1}}`)
	vocabJSON := []byte(`{"texts":["some words"]}`)

	rejected := []struct {
		name, method, url, ct string
		body                  []byte
	}{
		{"batch form-encoded", "POST", "/v1/topics/" + req.Name + "/batches", "application/x-www-form-urlencoded", batchJSON},
		{"batch text", "POST", "/v1/topics/" + req.Name + "/batches", "text/plain", batchJSON},
		{"batch malformed header", "POST", "/v1/topics/" + req.Name + "/batches", "application/", batchJSON},
		{"create binary type", "POST", "/v1/topics", mediaTypeBatch, topicJSON},
		{"vocab octet-stream", "POST", "/v1/topics/" + req.Name + "/vocab", mediaTypeSnapshot, vocabJSON},
		{"restore json type", "PUT", "/v1/topics/restored-ct", mediaTypeJSON, []byte("not a snapshot")},
		{"move binary type", "POST", "/v1/cluster/move", mediaTypeBatch, []byte(`{"topic":"x","target":"y"}`)},
	}
	for _, tc := range rejected {
		t.Run(tc.name, func(t *testing.T) {
			r := call(t, client, tc.method, srv.URL+tc.url, tc.body, nil, "Content-Type", tc.ct)
			if r.code != http.StatusUnsupportedMediaType {
				t.Fatalf("status %d, want 415 (body %s)", r.code, r.body)
			}
			if code := r.ec; code != codeUnsupportedMediaType {
				t.Fatalf("code %q, want %q", code, codeUnsupportedMediaType)
			}
		})
	}

	accepted := []struct {
		name, ct string
	}{
		{"absent defaults to json", ""},
		{"plain json", "application/json"},
		{"json with charset", "application/json; charset=utf-8"},
	}
	for day, tc := range accepted {
		t.Run(tc.name, func(t *testing.T) {
			body := fmt.Appendf(nil, `{"time":%d,"tweets":[{"tokens":["a","b"],"user":0}]}`, day+1)
			r := call(t, client, "POST", srv.URL+"/v1/topics/"+req.Name+"/batches", body, nil, "Content-Type", tc.ct)
			if r.code != http.StatusOK {
				t.Fatalf("status %d, want 200 (body %s)", r.code, r.body)
			}
		})
	}

	// The rejected probe create must not have registered its topic.
	if r := call(t, client, "GET", srv.URL+"/v1/topics/ct-probe", nil, nil); r.code != http.StatusNotFound || r.ec != codeTopicNotFound {
		t.Fatalf("415-rejected create leaked a topic: %d %s", r.code, r.ec)
	}
}

// wireTopicETag fetches the topic's current read-plane ETag from the
// features endpoint.
func wireTopicETag(t *testing.T, client *http.Client, base, name string) string {
	t.Helper()
	r := call(t, client, "GET", base+"/v1/topics/"+name+"/features", nil, nil)
	if r.code != http.StatusOK || r.etag == "" {
		t.Fatalf("features: status %d, ETag %q", r.code, r.etag)
	}
	return r.etag
}

// TestBatchFormatEquivalence is the pooled-scratch/equivalence bar on a
// single daemon: the same deterministic stream driven (a) all-JSON,
// (b) all-binary, and (c) alternating formats on one topic — batches for
// all three flowing through the same pooled scratch objects — must yield
// byte-identical snapshots and identical read-plane ETags. A stale token
// surviving scratch reuse between formats would desynchronize the solver
// stream and break the byte equality.
func TestBatchFormatEquivalence(t *testing.T) {
	srv := front(t, serve(t, "", serverOptions{}, false))
	client := srv.Client()

	const days = 6
	topics := []struct {
		idx  int
		mode string // json | binary | alternate
	}{{0, "json"}, {1, "binary"}, {2, "alternate"}}

	// All three topics use topic 0's workload (same tweets, same solver
	// config, same seed) under different names, so their final snapshots
	// are comparable after normalizing the name-bearing bytes — which the
	// snapshot format does not include (the name lives in the URL only).
	for _, tc := range topics {
		req := harnessCreateReq(tc.idx)
		req.Name = fmt.Sprintf("eq-%s", tc.mode)
		req.Options = harnessCreateReq(0).Options
		if r := call(nil, client, "POST", srv.URL+"/v1/topics", req, nil); r.err != nil || r.code != http.StatusCreated {
			t.Fatalf("create %s: %d %v", req.Name, r.code, r.err)
		}
		url := srv.URL + "/v1/topics/" + req.Name + "/batches"
		for day := 1; day <= days; day++ {
			batch := harnessBatch(0, day)
			useBinary := tc.mode == "binary" || (tc.mode == "alternate" && day%2 == 0)
			if useBinary {
				r := call(t, client, "POST", url, binaryBatchBody(t, batch), nil, "Content-Type", mediaTypeBatch)
				if r.code != http.StatusOK {
					t.Fatalf("%s day %d binary: status %d (%s)", req.Name, day, r.code, r.body)
				}
			} else {
				if r := call(nil, client, "POST", url, batch, nil); r.err != nil || r.code != http.StatusOK {
					t.Fatalf("%s day %d json: %d %v", req.Name, day, r.code, r.err)
				}
			}
		}
	}

	// The control: the same stream run directly against the library.
	ctl := controlTopic(t, harnessCreateReq(0))
	for day := 1; day <= days; day++ {
		if _, err := ctl.Process(day, specTweets(harnessBatch(0, day))); err != nil {
			t.Fatalf("control day %d: %v", day, err)
		}
	}
	var want bytes.Buffer
	if err := ctl.Snapshot(&want); err != nil {
		t.Fatal(err)
	}

	var etags []string
	for _, tc := range topics {
		name := fmt.Sprintf("eq-%s", tc.mode)
		got := call(t, client, "GET", srv.URL+"/v1/topics/"+name+"/snapshot", nil, nil)
		if ct := got.hdr.Get("Content-Type"); got.code != http.StatusOK || ct != "application/octet-stream" || !bytes.Equal(got.body, want.Bytes()) {
			t.Fatalf("topic %s: snapshot (status %d, %s, %d bytes) differs from the library control (%d bytes)",
				name, got.code, ct, len(got.body), want.Len())
		}
		etags = append(etags, wireTopicETag(t, client, srv.URL, name))
	}
	for i := 1; i < len(etags); i++ {
		if etags[i] != etags[0] {
			t.Fatalf("ETags diverge across formats: %v", etags)
		}
	}
}

// TestBinaryBatchResponseNegotiation checks that an Accept-negotiated
// binary response carries exactly the numbers the JSON response does.
func TestBinaryBatchResponseNegotiation(t *testing.T) {
	srv := front(t, serve(t, "", serverOptions{}, false))
	client := srv.Client()

	for _, name := range []string{"neg-json", "neg-bin"} {
		req := harnessCreateReq(0)
		req.Name = name
		if r := call(nil, client, "POST", srv.URL+"/v1/topics", req, nil); r.err != nil || r.code != http.StatusCreated {
			t.Fatalf("create %s: %d %v", name, r.code, r.err)
		}
	}
	batch := harnessBatch(0, 1)
	var jsonResp batchResponse
	if r := call(nil, client, "POST", srv.URL+"/v1/topics/neg-json/batches", batch, &jsonResp); r.err != nil || r.code != http.StatusOK {
		t.Fatalf("json batch: %d %v", r.code, r.err)
	}
	r := call(t, client, "POST", srv.URL+"/v1/topics/neg-bin/batches", binaryBatchBody(t, batch), nil, "Content-Type", mediaTypeBatch, "Accept", mediaTypeBatch+";q=0.9, application/json;q=0.1")
	if r.code != http.StatusOK {
		t.Fatalf("binary batch: status %d (%s)", r.code, r.body)
	}
	if mt, _, _ := strings.Cut(r.hdr.Get("Content-Type"), ";"); strings.TrimSpace(mt) != mediaTypeBatch {
		t.Fatalf("response Content-Type %q, want %q", r.hdr.Get("Content-Type"), mediaTypeBatch)
	}
	res, err := codec.DecodeBatchResponse(r.body)
	if err != nil {
		t.Fatalf("binary response does not decode: %v", err)
	}
	if res.Time != jsonResp.Time || res.Skipped != jsonResp.Skipped ||
		res.Converged != jsonResp.Converged || res.Iterations != jsonResp.Iterations {
		t.Fatalf("header fields differ: binary %+v vs json %+v", res, jsonResp)
	}
	if len(res.Tweets) != len(jsonResp.Tweets) || len(res.Users) != len(jsonResp.Users) {
		t.Fatalf("cardinality differs: %d/%d tweets, %d/%d users",
			len(res.Tweets), len(jsonResp.Tweets), len(res.Users), len(jsonResp.Users))
	}
	for i, s := range res.Tweets {
		if s.Class != jsonResp.Tweets[i].Class || s.Confidence != jsonResp.Tweets[i].Confidence {
			t.Fatalf("tweet %d sentiment differs: %+v vs %+v", i, s, jsonResp.Tweets[i])
		}
	}
	for i, u := range res.Users {
		j := jsonResp.Users[i]
		if u.User != j.User || u.Class != j.Class || u.Confidence != j.Confidence {
			t.Fatalf("user %d sentiment differs: %+v vs %+v", i, u, j)
		}
	}
	// Errors ignore Accept: they are always JSON, with the stable code.
	r = call(t, client, "POST", srv.URL+"/v1/topics/neg-bin/batches", binaryBatchBody(t, batch), nil,
		"Content-Type", mediaTypeBatch, "Accept", mediaTypeBatch) // same day again → stale_timestamp
	if r.code != http.StatusConflict {
		t.Fatalf("stale binary batch: status %d", r.code)
	}
	if mt, _, _ := strings.Cut(r.hdr.Get("Content-Type"), ";"); strings.TrimSpace(mt) != mediaTypeJSON {
		t.Fatalf("error Content-Type %q, want JSON", r.hdr.Get("Content-Type"))
	}
	if code := r.ec; code != codeStaleTimestamp {
		t.Fatalf("error code %q, want %q", code, codeStaleTimestamp)
	}
}

// TestBinaryBatchCorruptionRejected drives damaged binary frames at a
// live topic: every rejection must be a clean 400 invalid_request with
// no state change — no batch applied, no ETag movement.
func TestBinaryBatchCorruptionRejected(t *testing.T) {
	srv := front(t, serve(t, "", serverOptions{}, false))
	client := srv.Client()
	req := harnessCreateReq(0)
	if r := call(nil, client, "POST", srv.URL+"/v1/topics", req, nil); r.err != nil || r.code != http.StatusCreated {
		t.Fatalf("create: %d %v", r.code, r.err)
	}
	url := srv.URL + "/v1/topics/" + req.Name + "/batches"
	if r := call(t, client, "POST", url, binaryBatchBody(t, harnessBatch(0, 1)), nil, "Content-Type", mediaTypeBatch); r.code != http.StatusOK {
		t.Fatalf("seed batch: %d (%s)", r.code, r.body)
	}
	before := wireTopicETag(t, client, srv.URL, req.Name)

	valid := binaryBatchBody(t, harnessBatch(0, 2))
	damaged := map[string][]byte{
		"truncated":   valid[:len(valid)/2],
		"bit flip":    append([]byte(nil), valid...),
		"empty":       {},
		"wrong magic": []byte("TRICSNAP nonsense"),
	}
	damaged["bit flip"][len(valid)/3] ^= 0x08
	// An older client's version 1 frame, sealed as such: version skew.
	v1 := append([]byte{1}, valid[1:len(valid)-4]...)
	damaged["version 1"] = binary.LittleEndian.AppendUint32(v1, codec.Checksum(v1))
	for name, body := range damaged {
		t.Run(name, func(t *testing.T) {
			r := call(t, client, "POST", url, body, nil, "Content-Type", mediaTypeBatch)
			if r.code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (%s)", r.code, r.body)
			}
			if code := r.ec; code != codeInvalidRequest {
				t.Fatalf("code %q, want %q", code, codeInvalidRequest)
			}
		})
	}
	if after := wireTopicETag(t, client, srv.URL, req.Name); after != before {
		t.Fatalf("rejected frames moved the read view: %s -> %s", before, after)
	}
	// The stream is intact: the batch the damaged frames failed to carry
	// still applies.
	if r := call(t, client, "POST", url, valid, nil, "Content-Type", mediaTypeBatch); r.code != http.StatusOK {
		t.Fatalf("follow-up batch: %d (%s)", r.code, r.body)
	}
}

// TestClusterWireFormatsEndToEnd is the cluster leg of the equivalence
// bar: interleaved JSON and binary batches driven through 307 redirects
// (every request sent to a rotating, mostly wrong shard) on an RF=2
// replicated cluster, then — after failing the topics' primaries over —
// every topic's snapshot must still be byte-identical to the
// single-process control. The binary frames must survive the client's
// re-send on the 307 (call's request carries GetBody) and journal-ship
// replication unchanged for that to hold.
func TestClusterWireFormatsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster harness is not short")
	}
	const (
		topics = 6
		days   = 6
	)
	tc := newCluster(t, 3, serverOptions{
		journal: store.Options{Every: 3, MaxBytes: 8 << 20},
		repl:    fastRepl(),
		peer:    fastPeer(nil),
	}, true)

	for i := 0; i < topics; i++ {
		var sum topicSummary
		tc.retryJSON("POST", tc.url(i%3)+"/v1/topics", harnessCreateReq(i), &sum, http.StatusCreated)
	}
	for day := 1; day <= days; day++ {
		for i := 0; i < topics; i++ {
			url := tc.url((i+day)%3) + "/v1/topics/" + harnessTopicName(i) + "/batches"
			batch := harnessBatch(i, day)
			if (i+day)%2 == 0 {
				// Binary leg, with a binary-negotiated response, retried the
				// same way retryJSON rides out routing races.
				var r reply
				if !eventually(func() bool {
					r = call(t, tc.client, "POST", url, binaryBatchBody(t, batch), nil, "Content-Type", mediaTypeBatch, "Accept", mediaTypeBatch)
					return r.code == http.StatusOK
				}) {
					t.Fatalf("topic %d day %d binary never succeeded (last %d: %s)", i, day, r.code, r.body)
				}
				if _, err := codec.DecodeBatchResponse(r.body); err != nil {
					t.Fatalf("topic %d day %d: redirected binary response does not decode: %v", i, day, err)
				}
			} else {
				tc.retryJSON("POST", url, batch, nil, http.StatusOK)
			}
		}
	}

	// Fail over: kill shard 0 for good; every topic it was primary for is
	// promoted from its journal-shipped replica. The replicated history
	// mixes frames that arrived as JSON and as binary — if the formats
	// were not one stream by the journal layer, promotion would fork.
	tc.killShard(0)
	live := []int{1, 2}
	victimOwned := make([]bool, topics)
	for i := 0; i < topics; i++ {
		if tc.ownerIdx(harnessTopicName(i)) == 0 {
			victimOwned[i] = true
			// Promotion from the journal-shipped replica lands at epoch 1.
			tc.awaitServedAt(harnessTopicName(i), 1, live)
		}
	}

	for i := 0; i < topics; i++ {
		name := harnessTopicName(i)
		got := call(t, tc.client, "GET", tc.url(1+i%2)+"/v1/topics/"+name+"/snapshot", nil, nil)
		ctl := controlTopic(t, harnessCreateReq(i))
		for day := 1; day <= days; day++ {
			if _, err := ctl.Process(day, specTweets(harnessBatch(i, day))); err != nil {
				t.Fatalf("control %s day %d: %v", name, day, err)
			}
		}
		if victimOwned[i] {
			ctl.SetEpoch(1)
		}
		var want bytes.Buffer
		if err := ctl.Snapshot(&want); err != nil {
			t.Fatal(err)
		}
		if ct := got.hdr.Get("Content-Type"); got.code != http.StatusOK || ct != "application/octet-stream" || !bytes.Equal(got.body, want.Bytes()) {
			t.Fatalf("topic %s: post-failover snapshot (status %d, %s, %d bytes) differs from control (%d bytes)",
				name, got.code, ct, len(got.body), want.Len())
		}
	}
}
