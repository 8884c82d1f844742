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
	"io"
	"net/http"
	"strings"
	"testing"

	"triclust/internal/codec"
	"triclust/internal/store"
)

// doRaw issues one request with an explicit body, Content-Type, and
// Accept, returning the status, the response body, and the response
// Content-Type. The *bytes.Reader body gives the request GetBody, so a
// client following a 307 re-sends the same bytes to the owning shard.
func doRaw(t *testing.T, client *http.Client, method, url, contentType, accept string, body []byte) (int, []byte, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data, resp.Header.Get("Content-Type")
}

// rawErrCode extracts the stable error code from an error response body.
func rawErrCode(t *testing.T, body []byte) string {
	t.Helper()
	var eb errorBody
	if err := decodeStrict(body, &eb); err != nil {
		t.Fatalf("error body %q does not decode: %v", body, err)
	}
	return eb.Error.Code
}

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
	_, srv := testServer(t, "")
	client := srv.Client()
	_, req := synthTopic(t, 1)
	if code, err := doJSON(client, "POST", srv.URL+"/v1/topics", req, nil); err != nil || code != http.StatusCreated {
		t.Fatalf("create: %d %v", code, err)
	}
	url := srv.URL + "/v1/topics/" + req.Name + "/vocab"

	status, body, _ := doRaw(t, client, "POST", url, "application/json", "",
		[]byte(`{"texts":["warm up the vocabulary"]}{"junk":1}`))
	if status != http.StatusBadRequest {
		t.Fatalf("trailing garbage: status %d, want 400", status)
	}
	if code := rawErrCode(t, body); code != codeInvalidRequest {
		t.Fatalf("trailing garbage: code %q, want %q", code, codeInvalidRequest)
	}
	// The rejected body must not have been half-applied: the clean prefix
	// named one text, so an applied half would have grown the vocabulary.
	var sum topicSummary
	if code, err := doJSON(client, "GET", srv.URL+"/v1/topics/"+req.Name, nil, &sum); err != nil || code != http.StatusOK {
		t.Fatalf("summary: %d %v", code, err)
	}
	if sum.VocabSize != 0 {
		t.Fatalf("rejected vocab body leaked %d words into the vocabulary", sum.VocabSize)
	}
	// The same body shape without the garbage is fine.
	status, _, _ = doRaw(t, client, "POST", url, "application/json", "",
		[]byte(`{"texts":["warm up the vocabulary"]}`))
	if status != http.StatusOK {
		t.Fatalf("clean body: status %d, want 200", status)
	}
}

// TestContentTypeEnforcement drives the 415 contract across the
// body-carrying endpoints: absent or the endpoint's own format passes
// (parameters like charset tolerated), anything else is refused with
// unsupported_media_type before any state changes.
func TestContentTypeEnforcement(t *testing.T) {
	_, srv := testServer(t, "")
	client := srv.Client()
	_, req := synthTopic(t, 2)
	if code, err := doJSON(client, "POST", srv.URL+"/v1/topics", req, nil); err != nil || code != http.StatusCreated {
		t.Fatalf("create: %d %v", code, err)
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
			status, body, _ := doRaw(t, client, tc.method, srv.URL+tc.url, tc.ct, "", tc.body)
			if status != http.StatusUnsupportedMediaType {
				t.Fatalf("status %d, want 415 (body %s)", status, body)
			}
			if code := rawErrCode(t, body); code != codeUnsupportedMediaType {
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
			status, respBody, _ := doRaw(t, client, "POST", srv.URL+"/v1/topics/"+req.Name+"/batches", tc.ct, "", body)
			if status != http.StatusOK {
				t.Fatalf("status %d, want 200 (body %s)", status, respBody)
			}
		})
	}

	// The rejected probe create must not have registered its topic.
	if code, errc := errCode(t, client, "GET", srv.URL+"/v1/topics/ct-probe", nil); code != http.StatusNotFound || errc != codeTopicNotFound {
		t.Fatalf("415-rejected create leaked a topic: %d %s", code, errc)
	}
}

// wireTopicETag fetches the topic's current read-plane ETag from the
// features endpoint.
func wireTopicETag(t *testing.T, client *http.Client, base, name string) string {
	t.Helper()
	resp, err := client.Get(base + "/v1/topics/" + name + "/features")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("features: status %d", resp.StatusCode)
	}
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("features response has no ETag")
	}
	return etag
}

// TestBatchFormatEquivalence is the pooled-scratch/equivalence bar on a
// single daemon: the same deterministic stream driven (a) all-JSON,
// (b) all-binary, and (c) alternating formats on one topic — batches for
// all three flowing through the same pooled scratch objects — must yield
// byte-identical snapshots and identical read-plane ETags. A stale token
// surviving scratch reuse between formats would desynchronize the solver
// stream and break the byte equality.
func TestBatchFormatEquivalence(t *testing.T) {
	_, srv := testServer(t, "")
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
		if code, err := doJSON(client, "POST", srv.URL+"/v1/topics", req, nil); err != nil || code != http.StatusCreated {
			t.Fatalf("create %s: %d %v", req.Name, code, err)
		}
		url := srv.URL + "/v1/topics/" + req.Name + "/batches"
		for day := 1; day <= days; day++ {
			batch := harnessBatch(0, day)
			useBinary := tc.mode == "binary" || (tc.mode == "alternate" && day%2 == 0)
			if useBinary {
				status, body, _ := doRaw(t, client, "POST", url, mediaTypeBatch, "", binaryBatchBody(t, batch))
				if status != http.StatusOK {
					t.Fatalf("%s day %d binary: status %d (%s)", req.Name, day, status, body)
				}
			} else {
				if code, err := doJSON(client, "POST", url, batch, nil); err != nil || code != http.StatusOK {
					t.Fatalf("%s day %d json: %d %v", req.Name, day, code, err)
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
		got := fetchSnapshot(t, client, srv.URL+"/v1/topics/"+name+"/snapshot")
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("topic %s: snapshot (%d bytes) differs from the library control (%d bytes)",
				name, len(got), want.Len())
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
	_, srv := testServer(t, "")
	client := srv.Client()

	for _, name := range []string{"neg-json", "neg-bin"} {
		req := harnessCreateReq(0)
		req.Name = name
		if code, err := doJSON(client, "POST", srv.URL+"/v1/topics", req, nil); err != nil || code != http.StatusCreated {
			t.Fatalf("create %s: %d %v", name, code, err)
		}
	}
	batch := harnessBatch(0, 1)
	var jsonResp batchResponse
	if code, err := doJSON(client, "POST", srv.URL+"/v1/topics/neg-json/batches", batch, &jsonResp); err != nil || code != http.StatusOK {
		t.Fatalf("json batch: %d %v", code, err)
	}
	status, body, respCT := doRaw(t, client, "POST", srv.URL+"/v1/topics/neg-bin/batches",
		mediaTypeBatch, mediaTypeBatch+";q=0.9, application/json;q=0.1", binaryBatchBody(t, batch))
	if status != http.StatusOK {
		t.Fatalf("binary batch: status %d (%s)", status, body)
	}
	if mt, _, _ := strings.Cut(respCT, ";"); strings.TrimSpace(mt) != mediaTypeBatch {
		t.Fatalf("response Content-Type %q, want %q", respCT, mediaTypeBatch)
	}
	res, err := codec.DecodeBatchResponse(body)
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
	status, body, respCT = doRaw(t, client, "POST", srv.URL+"/v1/topics/neg-bin/batches",
		mediaTypeBatch, mediaTypeBatch, binaryBatchBody(t, batch)) // same day again → stale_timestamp
	if status != http.StatusConflict {
		t.Fatalf("stale binary batch: status %d", status)
	}
	if mt, _, _ := strings.Cut(respCT, ";"); strings.TrimSpace(mt) != mediaTypeJSON {
		t.Fatalf("error Content-Type %q, want JSON", respCT)
	}
	if code := rawErrCode(t, body); code != codeStaleTimestamp {
		t.Fatalf("error code %q, want %q", code, codeStaleTimestamp)
	}
}

// TestBinaryBatchCorruptionRejected drives damaged binary frames at a
// live topic: every rejection must be a clean 400 invalid_request with
// no state change — no batch applied, no ETag movement.
func TestBinaryBatchCorruptionRejected(t *testing.T) {
	_, srv := testServer(t, "")
	client := srv.Client()
	req := harnessCreateReq(0)
	if code, err := doJSON(client, "POST", srv.URL+"/v1/topics", req, nil); err != nil || code != http.StatusCreated {
		t.Fatalf("create: %d %v", code, err)
	}
	url := srv.URL + "/v1/topics/" + req.Name + "/batches"
	if status, body, _ := doRaw(t, client, "POST", url, mediaTypeBatch, "", binaryBatchBody(t, harnessBatch(0, 1))); status != http.StatusOK {
		t.Fatalf("seed batch: %d (%s)", status, body)
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
			status, respBody, _ := doRaw(t, client, "POST", url, mediaTypeBatch, "", body)
			if status != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (%s)", status, respBody)
			}
			if code := rawErrCode(t, respBody); code != codeInvalidRequest {
				t.Fatalf("code %q, want %q", code, codeInvalidRequest)
			}
		})
	}
	if after := wireTopicETag(t, client, srv.URL, req.Name); after != before {
		t.Fatalf("rejected frames moved the read view: %s -> %s", before, after)
	}
	// The stream is intact: the batch the damaged frames failed to carry
	// still applies.
	if status, body, _ := doRaw(t, client, "POST", url, mediaTypeBatch, "", valid); status != http.StatusOK {
		t.Fatalf("follow-up batch: %d (%s)", status, body)
	}
}

// TestClusterWireFormatsEndToEnd is the cluster leg of the equivalence
// bar: interleaved JSON and binary batches driven through 307 redirects
// (every request sent to a rotating, mostly wrong shard) on an RF=2
// replicated cluster, then — after failing the topics' primaries over —
// every topic's snapshot must still be byte-identical to the
// single-process control. The binary frames must survive the client's
// re-send on the 307 (doRaw's request carries GetBody) and journal-ship
// replication unchanged for that to hold.
func TestClusterWireFormatsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster harness is not short")
	}
	const (
		topics = 6
		days   = 6
	)
	tc := newClockedCluster(t, 3, serverOptions{
		journal: store.Options{Every: 3, MaxBytes: 8 << 20},
		repl:    fastRepl(),
		peer:    fastPeer(nil),
	})

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
				var status int
				var body []byte
				if !eventually(func() bool {
					status, body, _ = doRaw(t, tc.client, "POST", url, mediaTypeBatch, mediaTypeBatch, binaryBatchBody(t, batch))
					return status == http.StatusOK
				}) {
					t.Fatalf("topic %d day %d binary never succeeded (last %d: %s)", i, day, status, body)
				}
				if _, err := codec.DecodeBatchResponse(body); err != nil {
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
		got := fetchSnapshot(t, tc.client, tc.url(1+i%2)+"/v1/topics/"+name+"/snapshot")
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
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("topic %s: post-failover snapshot (%d bytes) differs from control (%d bytes)",
				name, len(got), want.Len())
		}
	}
}
