package main

// This file writes the data directory beside it. It belongs to the daemon
// package (cmd/triclustd) of a build that still writes version 1 journals
// and replica frames, and runs only there; see README.md for the command.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"triclust"
	"triclust/internal/cluster"
	"triclust/internal/codec"
	"triclust/internal/fault"
	"triclust/internal/journal"
	"triclust/internal/store"
)

type refusePeers struct{}

func (refusePeers) RoundTrip(*http.Request) (*http.Response, error) {
	return nil, errors.New("no peer is reachable while writing the fixture")
}

func TestWriteV1DataDir(t *testing.T) {
	out := os.Getenv("TRICLUST_V1_DATADIR")
	if out == "" {
		t.Skip("set TRICLUST_V1_DATADIR to the directory to write")
	}
	const self, peer = "http://self.test:8547", "http://peer.test:8547"
	ring, err := cluster.New([]string{self, peer}, 32)
	if err != nil {
		t.Fatal(err)
	}
	name := func(prefix, owner string) string {
		for i := 0; ; i++ {
			if n := fmt.Sprintf("%s%d", prefix, i); ring.Owner(n) == owner {
				return n
			}
		}
	}
	primary, replicated := name("p", self), name("r", peer)

	do := func(h http.Handler, method, path, ctype string, body []byte) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, path, bytes.NewReader(body))
		if ctype != "" {
			req.Header.Set("Content-Type", ctype)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code/100 != 2 {
			t.Fatalf("%s %s: %d %s", method, path, rec.Code, rec.Body)
		}
		return rec
	}
	create := func(h http.Handler, topic string) {
		users := make([]string, 12)
		for i := range users {
			users[i] = fmt.Sprintf("user%02d", i)
		}
		body, _ := json.Marshal(createTopicRequest{Name: topic, Users: users, Options: topicOptions{MaxIter: 4, Seed: 7, MinDF: 1}})
		do(h, "POST", "/v1/topics", "application/json", body)
	}
	// Each batch mixes raw text (nil tokens), tokens, an explicit empty
	// token list and a retweet, so a reader meets every tweet shape.
	batch := func(h http.Handler, topic string, day int) {
		texts := []string{"love the #prop37 labeling win", "no on prop37 bad law", "proud to stand with science"}
		tweets := []triclust.Tweet{
			{Text: texts[day%3], User: day % 12, Time: day, RetweetOf: -1, Label: triclust.NoLabel},
			{Tokens: []string{"awful", "prop37", "scam"}, User: (day + 3) % 12, Time: day, RetweetOf: -1, Label: triclust.NoLabel},
			{Tokens: []string{}, User: (day + 5) % 12, Time: day, RetweetOf: -1, Label: triclust.NoLabel},
			{Text: "boosting this", User: (day + 7) % 12, Time: day, RetweetOf: 0, Label: triclust.NoLabel},
		}
		body, err := codec.EncodeBatchRequest(day, tweets)
		if err != nil {
			t.Fatal(err)
		}
		do(h, "POST", "/v1/topics/"+topic+"/batches", "application/x-triclust-batch", body)
	}

	// The primary: created (its snapshot), then three batches acked into
	// its journal, which no compaction folds away before the copy below.
	dir := t.TempDir()
	cc, err := newClusterConfig(self, self+","+peer, 32)
	if err != nil {
		t.Fatal(err)
	}
	s, err := newServer(dir, serverOptions{journal: store.Options{Every: 64}, cluster: cc,
		repl: &replOptions{Factor: 2}, peer: peerOptions{Transport: refusePeers{}}}, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	create(s, primary)
	for day := 1; day <= 3; day++ {
		batch(s, primary, day)
	}
	want := map[string]any{"primary": primary, "replica": replicated}
	rec := do(s, "GET", "/v1/topics/"+primary+"/users/1", "", nil)
	want["primary_etag"] = rec.Header().Get("Etag")
	snap := do(s, "GET", "/v1/topics/"+primary+"/snapshot", "", nil).Body.Bytes()
	want["primary_snapshot_crc"] = codec.Checksum(snap)

	// The replica: what its primary (peer) ships — a full base after day
	// 1 with the journal frames of days 2 and 3, then day 4's frame alone.
	src := t.TempDir()
	ps, err := newServer(src, serverOptions{journal: store.Options{Every: 64}}, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ps.Close)
	create(ps, replicated)
	batch(ps, replicated, 1)
	base := do(ps, "GET", "/v1/topics/"+replicated+"/snapshot", "", nil).Body.Bytes()
	for day := 2; day <= 4; day++ {
		batch(ps, replicated, day)
	}
	want["replica_primary_etag"] = do(ps, "GET", "/v1/topics/"+replicated+"/users/1", "", nil).Header().Get("Etag")
	j, err := journal.Load(fault.OS, filepath.Join(src, replicated+".journal"))
	if err != nil || len(j.Records) != 4 {
		t.Fatalf("source journal: %v", err)
	}
	frame := func(i int) []byte {
		f, err := journal.EncodeFrame(j.Records[i])
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	ship := func(fr *codec.ReplAppend) {
		do(s, "POST", "/v1/replica/"+replicated+"/append", "application/octet-stream", codec.AppendReplAppend(nil, fr))
	}
	r0, r2, r3 := j.Records[0], j.Records[2], j.Records[3]
	ship(&codec.ReplAppend{Source: peer, SnapCRC: codec.Checksum(base), Snapshot: base,
		BaseBatches: uint64(r0.Batches), BaseRandDraws: r0.RandDraws,
		Batches: uint64(r2.Batches), RandDraws: r2.RandDraws, Tail: append(frame(1), frame(2)...)})
	ship(&codec.ReplAppend{Source: peer, SnapCRC: codec.Checksum(base),
		Batches: uint64(r3.Batches), RandDraws: r3.RandDraws, Tail: frame(3)})

	// Copy the files as a crash would leave them: every ack is fsynced,
	// and nothing has compacted.
	if err := os.MkdirAll(filepath.Join(out, "data"), 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), primary+".") && !strings.HasPrefix(e.Name(), replicated+".") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		_, err = io.Copy(&b, f)
		f.Close()
		if err == nil {
			err = os.WriteFile(filepath.Join(out, "data", e.Name()), b.Bytes(), 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	wj, _ := json.MarshalIndent(want, "", "  ")
	if err := os.WriteFile(filepath.Join(out, "want.json"), append(wj, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
