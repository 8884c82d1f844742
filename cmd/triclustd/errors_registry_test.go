package main

// The daemon's public surface: the API-surface snapshot (TestAPISurface),
// the error-code registry check (TestErrorCodeRegistry), and coverage for
// the error codes no other test exercises, so that the check can require
// every code in errors.go to be both documented in README.md and asserted
// by at least one test.

import (
	"bytes"
	"encoding/binary"
	"flag"
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

var updateAPISurface = flag.Bool("update-api-surface", false,
	"rewrite scripts/api-surface.txt (at the repository root) from the daemon's source")

// apiSurfaceFile is the checked-in snapshot of the daemon's surface.
const apiSurfaceFile = "../../scripts/api-surface.txt"

// apiSurface extracts the daemon's public surface from its non-test
// sources: every mux.HandleFunc pattern ("route"), every code* and
// mediaType* string constant ("error-code", "media-type"), and every
// flag.* definition in main.go ("flag"), one sorted line each.
func apiSurface(t *testing.T) map[string][]string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }, 0)
	if err != nil {
		t.Fatal(err)
	}
	str := func(e ast.Expr) (string, bool) {
		lit, ok := e.(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return "", false
		}
		s, err := strconv.Unquote(lit.Value)
		return s, err == nil
	}
	// call reports the string first argument of a call to x.sel for any sel.
	call := func(n ast.Node, x string) (sel, arg string, ok bool) {
		c, isCall := n.(*ast.CallExpr)
		if !isCall || len(c.Args) == 0 {
			return "", "", false
		}
		f, isSel := c.Fun.(*ast.SelectorExpr)
		if !isSel {
			return "", "", false
		}
		if id, isID := f.X.(*ast.Ident); !isID || id.Name != x {
			return "", "", false
		}
		arg, ok = str(c.Args[0])
		return f.Sel.Name, arg, ok
	}
	surface := map[string][]string{}
	for _, pkg := range pkgs {
		for path, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				if sel, pattern, ok := call(n, "mux"); ok && sel == "HandleFunc" {
					surface["route"] = append(surface["route"], pattern)
				}
				if _, name, ok := call(n, "flag"); ok && filepath.Base(path) == "main.go" {
					surface["flag"] = append(surface["flag"], "-"+name)
				}
				if vs, ok := n.(*ast.ValueSpec); ok {
					for i, id := range vs.Names {
						if i >= len(vs.Values) {
							break
						}
						v, ok := str(vs.Values[i])
						switch {
						case !ok:
						case strings.HasPrefix(id.Name, "code"):
							surface["error-code"] = append(surface["error-code"], v)
						case strings.HasPrefix(id.Name, "mediaType"):
							surface["media-type"] = append(surface["media-type"], v)
						}
					}
				}
				return true
			})
		}
	}
	for _, entries := range surface {
		slices.Sort(entries)
	}
	return surface
}

// TestAPISurface pins the daemon's public surface — its HTTP routes, the
// stable error codes, the accepted media types and the command-line flags —
// to scripts/api-surface.txt. Clients branch on them and operators script
// against them, so any change (addition, rename, removal) is an explicit
// diff of that file in the change that makes it; -update-api-surface
// rewrites it. An empty category means the extraction went stale.
func TestAPISurface(t *testing.T) {
	surface := apiSurface(t)
	var b strings.Builder
	b.WriteString("# Generated by go test ./cmd/triclustd -run TestAPISurface -update-api-surface; do not edit by hand.\n")
	b.WriteString("# Routes, stable error codes, media types, and flags of cmd/triclustd.\n")
	for _, kind := range []string{"route", "error-code", "media-type", "flag"} {
		if len(surface[kind]) == 0 {
			t.Errorf("no %s entries extracted: the extraction is stale", kind)
		}
		for _, e := range surface[kind] {
			b.WriteString(kind + " " + e + "\n")
		}
	}
	if *updateAPISurface {
		if err := os.WriteFile(apiSurfaceFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(apiSurfaceFile)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for _, l := range gotLines {
			if !slices.Contains(wantLines, l) {
				t.Errorf("+ %s", l)
			}
		}
		for _, l := range wantLines {
			if !slices.Contains(gotLines, l) {
				t.Errorf("- %s", l)
			}
		}
		t.Errorf("the daemon's public surface differs from scripts/api-surface.txt (+ source, - snapshot); " +
			"if that is intended, rerun with -update-api-surface and commit the file")
	}
}

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
	srv := front(t, serve(t, "", serverOptions{}, false))
	client := srv.Client()
	jtCreate(t, client, srv.URL)
	jtFeed(t, client, srv.URL, 0, 2)
	r := call(t, client, "GET", srv.URL+"/v1/topics/"+journalTopicName+"/snapshot", nil, nil)
	if r.code != http.StatusOK {
		t.Fatalf("snapshot: status %d", r.code)
	}
	snap := r.body

	// The version lives at bytes 8:10 of the header, checked before the
	// payload checksum.
	future := append([]byte(nil), snap...)
	binary.LittleEndian.PutUint16(future[8:10], codec.Version+1)

	if r := call(t, client, http.MethodPut, srv.URL+"/v1/topics/other", future, nil); r.code != http.StatusBadRequest || r.ec != codeSnapshotVersion {
		t.Fatalf("future-version restore: %d %q, want 400 %q", r.code, r.ec, codeSnapshotVersion)
	}
}

// TestPersistenceFailureStorageError: when the data directory vanishes
// under a running daemon (disk detached, path unlinked), a create — whose
// 201 would promise a snapshot and a journal on disk — is refused with
// storage_error and leaves no topic behind.
func TestPersistenceFailureStorageError(t *testing.T) {
	dir := t.TempDir()
	srv := front(t, serve(t, dir, serverOptions{}, true))
	client := srv.Client()

	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	r := call(t, client, "POST", srv.URL+"/v1/topics", jtCreateReq(journalTopicName), nil)
	if r.code != http.StatusInternalServerError || r.ec != codeStorage {
		t.Fatalf("create without storage: %d %q, want 500 %q", r.code, r.ec, codeStorage)
	}
	if r := call(t, client, "GET", srv.URL+"/v1/topics/"+journalTopicName, nil, nil); r.code != http.StatusNotFound {
		t.Fatalf("topic after failed create: %d %q, want 404", r.code, r.ec)
	}
}

// TestMoveToDeadPeerFails: a hand-off whose target refuses the install
// (peer down, answering 503) is reported as move_failed, and the source
// un-fences and keeps serving the topic.
func TestMoveToDeadPeerFails(t *testing.T) {
	tc := newCluster(t, 2, serverOptions{}, false)
	name := harnessTopicName(5)
	src := tc.ownerIdx(name)
	dst := 1 - src

	var sum topicSummary
	tc.retryJSON("POST", tc.url(src)+"/v1/topics", harnessCreateReq(5), &sum, http.StatusCreated)
	var br batchResponse
	tc.retryJSON("POST", tc.url(src)+"/v1/topics/"+name+"/batches", harnessBatch(5, 1), &br, http.StatusOK)

	tc.killShard(dst)
	a := call(nil, tc.noRedirect, "POST", tc.url(src)+"/v1/cluster/move", moveRequest{Topic: name, Target: tc.url(dst)}, nil)
	if a.err != nil || a.code != http.StatusBadGateway || a.ec != codeMoveFailed {
		t.Fatalf("move to dead peer: %v %v, want 502 %q", a, a.err, codeMoveFailed)
	}

	// The failed move left the topic served at the source, un-fenced.
	var info topicSummary
	tc.retryJSON("GET", tc.url(src)+"/v1/topics/"+name, nil, &info, http.StatusOK)
	if info.Batches != 1 {
		t.Fatalf("after failed move: %+v", info)
	}
}
