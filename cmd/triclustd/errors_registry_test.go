package main

// Coverage for the error codes no other test exercises, so the
// error-code registry check (scripts/error-codes-check.sh) can require
// every code in errors.go to be both documented in README.md and
// asserted by at least one test.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"net/http"
	"os"
	"testing"

	"triclust/internal/codec"
)

// TestRestoreUnsupportedSnapshotVersion: a snapshot stamped with a
// future format version is refused with unsupported_snapshot_version —
// not invalid_snapshot — so clients can tell a skewed build from a
// corrupt file.
func TestRestoreUnsupportedSnapshotVersion(t *testing.T) {
	_, srv := testServer(t, "")
	client := srv.Client()
	jtCreate(t, client, srv.URL)
	jtFeed(t, client, srv.URL, 0, 2)
	snap := jtSnapshotBytes(t, client, srv.URL)

	// The version lives at bytes 8:10 of the header, checked before the
	// payload checksum.
	future := append([]byte(nil), snap...)
	binary.LittleEndian.PutUint16(future[8:10], codec.Version+1)

	req, err := http.NewRequest(http.MethodPut, srv.URL+"/v1/topics/other", bytes.NewReader(future))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || eb.Error.Code != codeSnapshotVersion {
		t.Fatalf("future-version restore: %d %q, want 400 %q", resp.StatusCode, eb.Error.Code, codeSnapshotVersion)
	}
}

// TestPersistenceFailureStorageError: when the data directory vanishes
// under a running daemon (disk detached, path unlinked), a create — whose
// 201 would promise a snapshot and a journal on disk — is refused with
// storage_error and leaves no topic behind.
func TestPersistenceFailureStorageError(t *testing.T) {
	dir := t.TempDir()
	s, srv := testServer(t, dir)
	t.Cleanup(s.Close)
	client := srv.Client()

	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	code, ec := errCode(t, client, "POST", srv.URL+"/v1/topics", jtCreateReq())
	if code != http.StatusInternalServerError || ec != codeStorage {
		t.Fatalf("create without storage: %d %q, want 500 %q", code, ec, codeStorage)
	}
	if code, ec := errCode(t, client, "GET", srv.URL+"/v1/topics/"+journalTopicName, nil); code != http.StatusNotFound {
		t.Fatalf("topic after failed create: %d %q, want 404", code, ec)
	}
}

// TestMoveToDeadPeerFails: a hand-off whose target refuses the install
// (peer down, answering 503) is reported as move_failed, and the source
// un-fences and keeps serving the topic.
func TestMoveToDeadPeerFails(t *testing.T) {
	tc := newTestCluster(t, 2, serverOptions{}, false)
	name := harnessTopicName(5)
	src := tc.ownerIdx(name)
	dst := 1 - src

	var sum topicSummary
	tc.retryJSON("POST", tc.url(src)+"/v1/topics", harnessCreateReq(5), &sum, http.StatusCreated)
	var br batchResponse
	tc.retryJSON("POST", tc.url(src)+"/v1/topics/"+name+"/batches", harnessBatch(5, 1), &br, http.StatusOK)

	tc.killShard(dst)
	code, ec := errCode2(t, tc.noRedirect, "POST", tc.url(src)+"/v1/cluster/move",
		moveRequest{Topic: name, Target: tc.url(dst)})
	if code != http.StatusBadGateway || ec != codeMoveFailed {
		t.Fatalf("move to dead peer: %d %q, want 502 %q", code, ec, codeMoveFailed)
	}

	// The failed move left the topic served at the source, un-fenced.
	var info topicSummary
	tc.retryJSON("GET", tc.url(src)+"/v1/topics/"+name, nil, &info, http.StatusOK)
	if info.Batches != 1 {
		t.Fatalf("after failed move: %+v", info)
	}
}
