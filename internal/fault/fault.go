// Package fault is the daemon's storage failpoint layer: a filesystem
// interface (FS) that every durable-write site goes through, with each
// call naming the *site* it serves ("journal.append.sync",
// "persist.snap.rename", …). Production code uses the passthrough OS
// implementation — thin wrappers over the os package, no state, no
// allocations, no branches — so the layer costs nothing when disabled.
// Tests substitute a Script (see script.go), which can return scripted
// errors, cut writes short, exhaust a byte budget into ENOSPC, or panic
// with a deterministic Crash at any named site — and which records every
// site it crosses, so a crash-point matrix can *discover* the complete
// set of durable-write failpoints instead of trusting a hand-kept list.
//
// The site string is the failpoint's identity. Sites are dot-separated
// "<area>.<operation>.<syscall>" constants at the call sites; two calls
// sharing a site are the same failpoint. New durable-write code must go
// through an FS with a fresh site name — the crash-point matrix
// auto-discovers whatever the workload crosses, so a bypassed write is
// the only way to dodge coverage.
package fault

import (
	"os"
)

// FS is the filesystem surface of the daemon's durable-write sites.
// Every method takes the failpoint site it is called from. Read-side
// methods (ReadFile) are included because recovery paths — the rollback
// reload after a failed append — must be injectable too.
type FS interface {
	// OpenFile opens (or creates) a file for writing; the returned File
	// routes its Write/Sync/Truncate calls back through the failpoint
	// layer.
	OpenFile(site, name string, flag int, perm os.FileMode) (File, error)
	// CreateTemp mirrors os.CreateTemp.
	CreateTemp(site, dir, pattern string) (File, error)
	// Rename mirrors os.Rename — the atomic-commit syscall of the
	// snapshot, tombstone, and replica-meta protocols.
	Rename(site, oldpath, newpath string) error
	// Remove mirrors os.Remove.
	Remove(site, name string) error
	// ReadFile mirrors os.ReadFile.
	ReadFile(site, name string) ([]byte, error)
	// SyncDir fsyncs a directory, making renames and newly created
	// entries durable.
	SyncDir(site, dir string) error
}

// File is the open-file surface of FS: the mutating calls carry their
// failpoint site. Seek and Close are not failpoints — neither makes
// bytes durable, and injecting them has never distinguished a crash
// state from the neighbouring Write/Sync sites.
type File interface {
	Write(site string, p []byte) (n int, err error)
	Sync(site string) error
	Truncate(site string, size int64) error
	Seek(offset int64, whence int) (int64, error)
	Close() error
	Name() string
}

// OS is the passthrough FS used outside tests: direct os calls, site
// strings ignored, zero added allocations on the file hot path.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(_, name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return (*osFile)(f), nil
}

func (osFS) CreateTemp(_, dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return (*osFile)(f), nil
}

func (osFS) Rename(_, oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osFS) Remove(_, name string) error             { return os.Remove(name) }
func (osFS) ReadFile(_, name string) ([]byte, error) { return os.ReadFile(name) }

func (osFS) SyncDir(_, dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// osFile is *os.File with the File signatures; the conversion is free
// (same representation), so the passthrough adds no allocation per open.
type osFile os.File

func (f *osFile) Write(_ string, p []byte) (int, error) { return (*os.File)(f).Write(p) }
func (f *osFile) Sync(_ string) error                   { return (*os.File)(f).Sync() }
func (f *osFile) Truncate(_ string, size int64) error   { return (*os.File)(f).Truncate(size) }
func (f *osFile) Seek(off int64, whence int) (int64, error) {
	return (*os.File)(f).Seek(off, whence)
}
func (f *osFile) Close() error { return (*os.File)(f).Close() }
func (f *osFile) Name() string { return (*os.File)(f).Name() }
