package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"triclust/internal/store"
)

// v1Data is a data dir written by a build whose journals and replica
// frames were version 1: the served topic p2 with three acked batches in
// its journal, and a cold replica r2 with a three-record tail (see the
// README beside it).
const v1Data = "../../testdata/datadir_v1/data"

// v1Files are the fixture's files: every one belongs to a topic or a
// replica with a version 1 journal.
var v1Files = []string{"p2.snap", "p2.journal", "r2.rsnap", "r2.rjournal", "r2.rmeta"}

// refusePeers fails every inter-shard request at once: the ring's peer
// never exists, and no request leaves the process.
type refusePeers struct{}

func (refusePeers) RoundTrip(*http.Request) (*http.Response, error) {
	return nil, errors.New("the peer is down")
}

// bootV1DataDir starts the fixture's shard (self, of self and peer) with
// replication on dir, without its background loops.
func bootV1DataDir(t *testing.T, dir string) *server {
	t.Helper()
	cc, err := newClusterConfig("http://self.test:8547", "http://self.test:8547,http://peer.test:8547", 32)
	if err != nil {
		t.Fatal(err)
	}
	s, err := newServer(dir, serverOptions{journal: store.Options{Every: 64}, cluster: cc,
		repl: &replOptions{Factor: 2}, peer: peerOptions{Transport: refusePeers{}}}, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// assertQuarantined checks that every fixture file sits under
// .unsupported-version with its bytes unchanged, and that the files named
// free are not under their own names.
func assertQuarantined(t *testing.T, dir string, free ...string) {
	t.Helper()
	for _, f := range v1Files {
		orig, err := os.ReadFile(filepath.Join(v1Data, f))
		if err != nil {
			t.Fatal(err)
		}
		if kept, err := os.ReadFile(filepath.Join(dir, f+".unsupported-version")); err != nil || !bytes.Equal(kept, orig) {
			t.Fatalf("%s is not kept byte for byte under .unsupported-version (%v)", f, err)
		}
	}
	for _, f := range free {
		if _, err := os.Stat(filepath.Join(dir, f)); !os.IsNotExist(err) {
			t.Fatalf("%s still occupies its name: %v", f, err)
		}
	}
}

// TestVersion1DataDir: a data dir an older build left, with version 1
// journals, starts, and loses nothing to the start. This build reads no
// version 1 journal, and serving the topic's snapshot without the batches
// acked after it would roll the topic back, so the scan moves the topic's
// snapshot and journal, and the replica's base, meta and tail, aside
// together — five files, byte for byte — and serves neither. A second
// start finds nothing more to move, and re-creating the topic leaves the
// quarantined files as they were. (A build that reads both versions
// replays such a data dir and compacts it to version 2; the README's
// journal section names those builds.)
func TestVersion1DataDir(t *testing.T) {
	dir := t.TempDir()
	for _, f := range v1Files {
		b, err := os.ReadFile(filepath.Join(v1Data, f))
		if err == nil {
			err = os.WriteFile(filepath.Join(dir, f), b, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	s := bootV1DataDir(t, dir)
	var health healthResponse
	if rec := matrixServe(t, s, "GET", "/v1/healthz", nil); rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &health) != nil || health.Quarantined != len(v1Files) {
		t.Fatalf("healthz after start: %d %s; want %d files quarantined", rec.Code, rec.Body, len(v1Files))
	}
	assertQuarantined(t, dir, v1Files...)
	if rec := matrixServe(t, s, "GET", "/v1/topics/p2", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("the quarantined topic answers %d, want 404", rec.Code)
	}
	if _, held := s.store.Replicas()["r2"]; held {
		t.Fatal("the quarantined replica is held")
	}
	s.Close()

	s = bootV1DataDir(t, dir)
	if n := s.store.Quarantined(); n != 0 {
		t.Fatalf("a second start quarantined %d more files", n)
	}
	assertQuarantined(t, dir, v1Files...)
	if rec := matrixServe(t, s, "POST", "/v1/topics", degradeCreateReq("p2")); rec.Code != http.StatusCreated {
		t.Fatalf("re-create of the quarantined name: %d %s", rec.Code, rec.Body)
	}
	assertQuarantined(t, dir, v1Files[2:]...)
}
