package fault

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

func scriptFileAt(t *testing.T, s *Script, name string) File {
	t.Helper()
	f, err := s.OpenFile("t.open", name, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	return f
}

func TestScriptErrOnNthHit(t *testing.T) {
	boom := errors.New("boom")
	s := NewScript(Rule{Site: "t.write", Hit: 2, Err: boom})
	f := scriptFileAt(t, s, filepath.Join(t.TempDir(), "f"))
	defer f.Close()
	if _, err := f.Write("t.write", []byte("one")); err != nil {
		t.Fatalf("hit 1: %v", err)
	}
	if _, err := f.Write("t.write", []byte("two")); !errors.Is(err, boom) {
		t.Fatalf("hit 2: got %v, want boom", err)
	}
	if _, err := f.Write("t.write", []byte("three")); err != nil {
		t.Fatalf("hit 3: %v", err)
	}
	if got := s.Hits("t.write"); got != 3 {
		t.Fatalf("Hits = %d, want 3", got)
	}
}

func TestScriptShortWrite(t *testing.T) {
	boom := errors.New("io error")
	s := NewScript(Rule{Site: "t.write", Hit: 1, Err: boom, Short: 2})
	path := filepath.Join(t.TempDir(), "f")
	f := scriptFileAt(t, s, path)
	n, err := f.Write("t.write", []byte("hello"))
	if n != 2 || !errors.Is(err, boom) {
		t.Fatalf("short write: n=%d err=%v, want 2, boom", n, err)
	}
	f.Close()
	b, _ := os.ReadFile(path)
	if string(b) != "he" {
		t.Fatalf("on disk %q, want the 2-byte prefix", b)
	}
}

func TestScriptBudgetENOSPC(t *testing.T) {
	s := NewScript()
	path := filepath.Join(t.TempDir(), "f")
	f := scriptFileAt(t, s, path)
	defer f.Close()
	s.SetBudget(4)
	if _, err := f.Write("t.write", []byte("abc")); err != nil {
		t.Fatalf("within budget: %v", err)
	}
	// 3 of 4 bytes used: this write fits one more byte, then the disk is
	// full — the fitting prefix lands, ENOSPC comes back.
	n, err := f.Write("t.write", []byte("defg"))
	if n != 1 || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("over budget: n=%d err=%v, want 1, ENOSPC", n, err)
	}
	if _, err := f.Write("t.write", []byte("h")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("full disk: %v, want ENOSPC", err)
	}
	if err := f.Sync("t.sync"); err != nil {
		t.Fatalf("sync on a full disk must still succeed: %v", err)
	}
	s.SetBudget(-1)
	if _, err := f.Write("t.write", []byte("ok")); err != nil {
		t.Fatalf("after disarm: %v", err)
	}
}

func TestScriptCrashDropsUnsyncedTail(t *testing.T) {
	s := NewScript(Rule{Site: "t.sync", Hit: 2, Crash: true, Tail: DropTail})
	path := filepath.Join(t.TempDir(), "f")
	f := scriptFileAt(t, s, path)
	if _, err := f.Write("t.write", []byte("durable")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync("t.sync"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write("t.write", []byte("-lost")); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			c, ok := AsCrash(recover())
			if !ok {
				t.Fatalf("expected a *Crash panic, got %v", c)
			}
			if c.Site != "t.sync" || c.Hit != 2 {
				t.Fatalf("crash at %s hit %d, want t.sync hit 2", c.Site, c.Hit)
			}
		}()
		_ = f.Sync("t.sync")
	}()
	if !s.Crashed() {
		t.Fatal("script not marked crashed")
	}
	// The dead process may not touch the disk image again.
	if _, err := f.Write("t.write", []byte("zombie")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash write: %v, want ErrCrashed", err)
	}
	if _, err := s.OpenFile("t.open", path, os.O_RDWR, 0o644); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash open: %v, want ErrCrashed", err)
	}
	b, _ := os.ReadFile(path)
	if string(b) != "durable" {
		t.Fatalf("post-crash image %q, want only the fsynced prefix %q", b, "durable")
	}
}

func TestScriptKeepTailCrash(t *testing.T) {
	s := NewScript(Rule{Site: "t.sync", Hit: 1, Crash: true, Tail: KeepTail})
	path := filepath.Join(t.TempDir(), "f")
	f := scriptFileAt(t, s, path)
	if _, err := f.Write("t.write", []byte("everything")); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if _, ok := AsCrash(recover()); !ok {
				t.Fatal("expected crash")
			}
		}()
		_ = f.Sync("t.sync")
	}()
	b, _ := os.ReadFile(path)
	if string(b) != "everything" {
		t.Fatalf("KeepTail image %q, want all written bytes", b)
	}
}

func TestScriptExistingContentsAreDurable(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := NewScript(Rule{Site: "t.crash", Crash: true, Tail: DropTail})
	f, err := s.OpenFile("t.open", path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write("t.write", []byte("-new")); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() { recover() }()
		_ = s.Rename("t.crash", path, path)
	}()
	b, _ := os.ReadFile(path)
	if string(b) != "old" {
		t.Fatalf("image %q: pre-existing bytes must survive DropTail, unsynced appends must not", b)
	}
}

func TestScriptSitesDiscovery(t *testing.T) {
	s := NewScript()
	dir := t.TempDir()
	f := scriptFileAt(t, s, filepath.Join(dir, "f"))
	_, _ = f.Write("t.write", []byte("x"))
	_ = f.Sync("t.sync")
	f.Close()
	_ = s.Rename("t.rename", filepath.Join(dir, "f"), filepath.Join(dir, "g"))
	got := s.Sites()
	want := []string{"t.open", "t.rename", "t.sync", "t.write"}
	if len(got) != len(want) {
		t.Fatalf("Sites = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Sites = %v, want %v", got, want)
		}
	}
}

// TestPassthroughZeroAllocs is the PR's zero-overhead guard: the
// passthrough FS must add no allocations to the warm write path. The
// osFile conversion is free and the site string is ignored, so a write
// through fault.OS is exactly a write through *os.File.
func TestPassthroughZeroAllocs(t *testing.T) {
	f, err := OS.OpenFile("t.open", filepath.Join(t.TempDir(), "f"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := []byte("warm write path")
	if n := testing.AllocsPerRun(200, func() {
		if _, err := f.Write("t.write", buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("passthrough Write allocates %v per op, want 0", n)
	}
}

// The ns/op companion to the alloc guard: compare with
//
//	go test -bench 'Append(Raw|Passthrough)' ./internal/fault/
//
// The delta is one interface call per op (~ns) against an fsync
// (~ms) — far inside the ≤2% budget.
func BenchmarkAppendRaw(b *testing.B) {
	f, err := os.OpenFile(filepath.Join(b.TempDir(), "f"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Write(buf); err != nil {
			b.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendPassthrough(b *testing.B) {
	f, err := OS.OpenFile("b.open", filepath.Join(b.TempDir(), "f"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Write("b.write", buf); err != nil {
			b.Fatal(err)
		}
		if err := f.Sync("b.sync"); err != nil {
			b.Fatal(err)
		}
	}
}
