package main

import (
	"bytes"
	"fmt"
	"net/http"
	"slices"
	"testing"

	"triclust"
)

// Conformance-gate tests drive a controlled steady stream so the
// profile's invariants are exactly predictable: 12 users, 12 tweets per
// batch (tweet i from user i), three tokens each drawn from a fixed
// five-word rotation, every tweet at the batch time, batch times
// stepping by one. Ten warm batches put every invariant — including
// time_step, which only starts accumulating at the second batch — past
// its MinSamples gate, so batch 11 is scored on all seven.

func steadyCreateReq(name string) createTopicRequest {
	users := make([]string, 12)
	for i := range users {
		users[i] = fmt.Sprintf("u%d", i)
	}
	return createTopicRequest{
		Name:    name,
		Users:   users,
		Options: topicOptions{MaxIter: 5, Seed: 7},
	}
}

func steadyBatch(ts int) batchRequest {
	word := func(k int) string { return fmt.Sprintf("w%d", k%5) }
	tweets := make([]tweetSpec, 12)
	for i := range tweets {
		tweets[i] = tweetSpec{
			Tokens: []string{word(i), word(i + 1), word(i + 2)},
			User:   i,
		}
	}
	return batchRequest{Time: ts, Tweets: tweets}
}

// warmSteady creates the topic and feeds it warm conforming batches at
// ts 1..n, asserting every one is accepted.
func warmSteady(t *testing.T, client *http.Client, base, name string, n int) {
	t.Helper()
	if r := call(nil, client, http.MethodPost, base+"/v1/topics", steadyCreateReq(name), nil); r.err != nil || r.code != http.StatusCreated {
		t.Fatalf("create %s: code=%d err=%v", name, r.code, r.err)
	}
	for ts := 1; ts <= n; ts++ {
		var resp batchResponse
		r := call(nil, client, http.MethodPost, base+"/v1/topics/"+name+"/batches", steadyBatch(ts), &resp)
		if r.err != nil || r.code != http.StatusOK {
			t.Fatalf("warm batch %d: code=%d err=%v", ts, r.code, r.err)
		}
	}
}

// Injected anomalies against the steady stream. Each perturbs exactly
// the invariants its test names, leaving the rest at their steady
// values.

// oovSpikeBatch: every token is outside the frozen vocabulary.
func oovSpikeBatch(ts int) batchRequest {
	tweets := make([]tweetSpec, 12)
	for i := range tweets {
		tweets[i] = tweetSpec{
			Tokens: []string{"zzz1", "zzz2", "zzz3"},
			User:   i,
		}
	}
	return batchRequest{Time: ts, Tweets: tweets}
}

// dupFloodBatch: twelve byte-identical tweets from one user.
func dupFloodBatch(ts int) batchRequest {
	tweets := make([]tweetSpec, 12)
	for i := range tweets {
		tweets[i] = tweetSpec{Tokens: []string{"w0", "w1", "w2"}, User: 0}
	}
	return batchRequest{Time: ts, Tweets: tweets}
}

// flagBandBatch widens tweets to five tokens: tokens_per_tweet lands at
// z = 4 and token_rate at z ≈ 6.7 — flag band, below the quarantine
// threshold of 8.
func flagBandBatch(ts int) batchRequest {
	word := func(k int) string { return fmt.Sprintf("w%d", k%5) }
	tweets := make([]tweetSpec, 12)
	for i := range tweets {
		tweets[i] = tweetSpec{
			Tokens: []string{word(i), word(i + 1), word(i + 2), word(i + 3), word(i + 4)},
			User:   i,
		}
	}
	return batchRequest{Time: ts, Tweets: tweets}
}

// TestConformEnforceRejectsAnomalies: in enforce mode each injected
// anomaly is refused with 422 batch_nonconforming naming the violated
// invariant in the structured verdict, the rejection leaves no durable
// trace (the same timestamp retries cleanly), and the healthz census
// reports the rejections.
func TestConformEnforceRejectsAnomalies(t *testing.T) {
	srv := front(t, serve(t, "", serverOptions{conform: triclust.ConformEnforce}, false))
	client := srv.Client()
	const name = "gate"
	warmSteady(t, client, srv.URL, name, 10)

	cases := []struct {
		label     string
		req       batchRequest
		invariant string
	}{
		{"oov spike", oovSpikeBatch(11), "oov_rate"},
		{"duplicate flood", dupFloodBatch(11), "dup_rate"},
		{"timestamp jump", batchRequest{Time: 1000, Tweets: steadyBatch(11).Tweets}, "time_step"},
	}
	for _, tc := range cases {
		var eb errorBody
		r := call(t, client, "POST", srv.URL+"/v1/topics/"+name+"/batches", tc.req, &eb)
		if r.code != http.StatusUnprocessableEntity || eb.Error.Code != codeBatchNonconforming {
			t.Fatalf("%s: got code=%d %q, want 422 %s", tc.label, r.code, eb.Error.Code, codeBatchNonconforming)
		}
		v := eb.Error.Conformance
		if v == nil {
			t.Fatalf("%s: rejection body carries no verdict", tc.label)
		}
		if v.Status != string(triclust.Quarantined) {
			t.Fatalf("%s: verdict status %q, want quarantined", tc.label, v.Status)
		}
		if !slices.Contains(v.Violated, tc.invariant) {
			t.Fatalf("%s: violated %v does not name %s", tc.label, v.Violated, tc.invariant)
		}
		if len(v.Scores) == 0 {
			t.Fatalf("%s: verdict carries no per-invariant scores", tc.label)
		}
	}
	// The timestamp-jump rejection must name time_step as the worst
	// offender outright (every other invariant is at its steady value).
	var eb errorBody
	r := call(t, client, "POST", srv.URL+"/v1/topics/"+name+"/batches", batchRequest{Time: 1000, Tweets: steadyBatch(11).Tweets}, &eb)
	if r.code != http.StatusUnprocessableEntity || eb.Error.Conformance == nil {
		t.Fatalf("repeat jump: code=%d", r.code)
	}
	if eb.Error.Conformance.Worst != "time_step" {
		t.Fatalf("jump worst = %q, want time_step", eb.Error.Conformance.Worst)
	}

	// Rejected batches left no durable trace: ts 11 is still free, and a
	// conforming batch at it is accepted.
	var ok batchResponse
	r = call(t, client, "POST", srv.URL+"/v1/topics/"+name+"/batches", steadyBatch(11), &ok)
	if r.code != http.StatusOK {
		t.Fatalf("retry after rejection: code=%d, want 200", r.code)
	}
	if ok.Conformance == nil || ok.Conformance.Status != string(triclust.Conforming) {
		t.Fatalf("retry verdict %+v, want conforming annotation", ok.Conformance)
	}

	// Healthz census: enforce mode, four rejections, and the topic's
	// last violation is the repeat timestamp jump.
	var hr healthResponse
	if r := call(nil, client, http.MethodGet, srv.URL+"/v1/healthz", nil, &hr); r.err != nil || r.code != http.StatusOK {
		t.Fatalf("healthz: code=%d err=%v", r.code, r.err)
	}
	ch := hr.Conformance
	if ch == nil {
		t.Fatal("healthz has no conformance section")
	}
	if ch.Mode != "enforce" || ch.RejectedBatches != 4 {
		t.Fatalf("census mode=%q rejected=%d, want enforce/4", ch.Mode, ch.RejectedBatches)
	}
	if len(ch.Topics) != 1 {
		t.Fatalf("census topics = %d, want 1", len(ch.Topics))
	}
	row := ch.Topics[0]
	if row.Name != name || !row.Ready || row.Observed != 11 || row.Quarantined != 0 {
		t.Fatalf("census row %+v: want ready, observed 11, zero applied quarantines", row)
	}
	if row.LastViolation == nil || row.LastViolation.Worst != "time_step" || row.LastViolation.Time != 1000 {
		t.Fatalf("last violation %+v, want time_step at 1000", row.LastViolation)
	}
}

// TestConformFlagAnnotates: flag mode accepts everything but annotates
// responses with the verdict, counts the applied quarantine in the
// census, and keeps scoring the stream afterwards.
func TestConformFlagAnnotates(t *testing.T) {
	srv := front(t, serve(t, "", serverOptions{conform: triclust.ConformFlag}, false))
	client := srv.Client()
	const name = "advisory"
	warmSteady(t, client, srv.URL, name, 10)

	var ok batchResponse
	r := call(t, client, "POST", srv.URL+"/v1/topics/"+name+"/batches", oovSpikeBatch(11), &ok)
	if r.code != http.StatusOK {
		t.Fatalf("flag-mode anomaly: code=%d, want 200", r.code)
	}
	if ok.Conformance == nil || ok.Conformance.Status != string(triclust.Quarantined) {
		t.Fatalf("flag-mode verdict %+v, want quarantined annotation", ok.Conformance)
	}
	if ok.Conformance.Worst != "oov_rate" {
		t.Fatalf("flag-mode worst %q, want oov_rate", ok.Conformance.Worst)
	}

	// The stream continues: the next steady batch is conforming (the
	// applied anomaly widened the profile, it did not wedge it).
	ok = batchResponse{}
	r = call(t, client, "POST", srv.URL+"/v1/topics/"+name+"/batches", steadyBatch(12), &ok)
	if r.code != http.StatusOK || ok.Conformance == nil || ok.Conformance.Status != string(triclust.Conforming) {
		t.Fatalf("post-anomaly steady batch: code=%d verdict=%+v", r.code, ok.Conformance)
	}

	var hr healthResponse
	if r := call(nil, client, http.MethodGet, srv.URL+"/v1/healthz", nil, &hr); r.err != nil || r.code != http.StatusOK {
		t.Fatalf("healthz: code=%d err=%v", r.code, r.err)
	}
	ch := hr.Conformance
	if ch == nil || ch.Mode != "flag" || ch.RejectedBatches != 0 {
		t.Fatalf("census %+v, want flag mode with zero rejections", ch)
	}
	row := ch.Topics[0]
	if row.Quarantined != 1 || row.Observed != 12 {
		t.Fatalf("census row %+v: want 1 applied quarantine over 12 observed", row)
	}
	if row.LastViolation == nil || row.LastViolation.Worst != "oov_rate" || row.LastViolation.Time != 11 {
		t.Fatalf("last violation %+v, want oov_rate at 11", row.LastViolation)
	}
}

// TestConformOffScoresSilently: off mode accepts and does not annotate,
// but the profile still accumulates — healthz shows the census and a
// later mode flip would score against the full history.
func TestConformOffScoresSilently(t *testing.T) {
	srv := front(t, serve(t, "", serverOptions{conform: triclust.ConformOff}, false))
	client := srv.Client()
	const name = "silent"
	warmSteady(t, client, srv.URL, name, 10)

	var ok batchResponse
	if r := call(t, client, "POST", srv.URL+"/v1/topics/"+name+"/batches", flagBandBatch(11), &ok); r.code != http.StatusOK {
		t.Fatalf("off-mode batch: code=%d", r.code)
	}
	if ok.Conformance != nil {
		t.Fatalf("off-mode response annotated: %+v", ok.Conformance)
	}

	var hr healthResponse
	if r := call(nil, client, http.MethodGet, srv.URL+"/v1/healthz", nil, &hr); r.err != nil || r.code != http.StatusOK {
		t.Fatalf("healthz: code=%d err=%v", r.code, r.err)
	}
	if hr.Conformance == nil || hr.Conformance.Mode != "off" {
		t.Fatalf("census %+v, want off mode section present", hr.Conformance)
	}
	row := hr.Conformance.Topics[0]
	if row.Observed != 11 || row.Scored == 0 {
		t.Fatalf("census row %+v: profile must accumulate and score in off mode", row)
	}
}

// TestConformFlaggedBatchKeepsETagParity: a flagged-but-accepted batch
// must advance the read plane's ETag validator exactly like a clean one
// — flagging annotates, it never touches the solver stream. Two daemons
// (off and flag) fed the identical stream, where the last batch lands in
// the flag band on the flag server, end with byte-identical snapshots
// and equal user-estimate ETags.
func TestConformFlaggedBatchKeepsETagParity(t *testing.T) {
	const name = "parity"
	feed := func(mode triclust.ConformanceMode) (etag string, snap []byte, last batchResponse) {
		srv := front(t, serve(t, "", serverOptions{conform: mode}, false))
		client := srv.Client()
		warmSteady(t, client, srv.URL, name, 10)
		if r := call(t, client, "POST", srv.URL+"/v1/topics/"+name+"/batches", flagBandBatch(11), &last); r.code != http.StatusOK {
			t.Fatalf("mode %v flag-band batch: code=%d", mode, r.code)
		}
		user := call(t, client, "GET", srv.URL+"/v1/topics/"+name+"/users/0", nil, nil)
		if user.code != http.StatusOK {
			t.Fatalf("user estimate: code=%d", user.code)
		}
		sr := call(t, client, "GET", srv.URL+"/v1/topics/"+name+"/snapshot", nil, nil)
		if sr.code != http.StatusOK {
			t.Fatalf("snapshot: code=%d err=%v", sr.code, sr.err)
		}
		return user.etag, sr.body, last
	}

	offTag, offSnap, _ := feed(triclust.ConformOff)
	flagTag, flagSnap, flagged := feed(triclust.ConformFlag)

	if flagged.Conformance == nil || flagged.Conformance.Status != string(triclust.Flagged) {
		t.Fatalf("final batch verdict %+v, want flagged", flagged.Conformance)
	}
	if offTag == "" || offTag != flagTag {
		t.Fatalf("ETag diverged: off %q vs flag %q", offTag, flagTag)
	}
	if !bytes.Equal(offSnap, flagSnap) {
		t.Fatalf("snapshots diverged: off %d bytes vs flag %d bytes", len(offSnap), len(flagSnap))
	}
}
