package main

// The error-code registry check (TestErrorCodeRegistry), and coverage for
// the error codes no other test exercises, so that the check can require
// every code in errors.go to be both documented in README.md and asserted
// by at least one test.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"triclust/internal/codec"
)

// TestErrorCodeRegistry keeps the v1 API error-code registry honest: every
// code<Name> = "literal" constant in errors.go must be documented in
// README.md and exercised by some *_test.go of the repository, through its
// identifier or its quoted wire literal. A code that is neither documented
// nor tested is a silent API surface.
func TestErrorCodeRegistry(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "errors.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	var tests [][]byte
	err = filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && d.Name() == ".git":
			return filepath.SkipDir
		case !d.IsDir() && strings.HasSuffix(path, "_test.go"):
			b, err := os.ReadFile(path)
			tests = append(tests, b)
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	codes := 0
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, name := range vs.Names {
				if !strings.HasPrefix(name.Name, "code") || i >= len(vs.Values) {
					continue
				}
				lit, ok := vs.Values[i].(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					continue
				}
				code, _ := strconv.Unquote(lit.Value)
				codes++
				if !bytes.Contains(readme, []byte(code)) {
					t.Errorf("%s (%q) is not documented in README.md", name.Name, code)
				}
				if !slices.ContainsFunc(tests, func(b []byte) bool {
					return bytes.Contains(b, []byte(name.Name)) || bytes.Contains(b, []byte(lit.Value))
				}) {
					t.Errorf("%s (%q) is not exercised by any *_test.go", name.Name, code)
				}
			}
		}
	}
	if codes == 0 {
		t.Fatal("no code constants found in errors.go: the extraction is stale")
	}
}

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
