// Package store is the one owner of triclustd's data directory: the only
// code that knows the on-disk layout (the README's data-directory table)
// and the durable-write protocol. The daemon calls verbs — save, append,
// load, set/clear tombstone, probe, remove — and never holds a fault.FS,
// a journal.Writer, a path or a suffix. It owns the follower side of
// replication too: the cold replicas held here, by topic name, and every
// rule for which shipped frame one accepts, behind apply, drop, list,
// promote (through the caller's persist callback) and close. What a failed
// write means for the topic and the client stays with the caller. Every
// write goes through the injected fault.FS under a named failpoint site,
// so the crash-point matrix discovers each one.
package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"triclust/internal/cluster"
	"triclust/internal/codec"
	"triclust/internal/fault"
	"triclust/internal/journal"
)

const (
	extSnap        = ".snap"
	extJournal     = ".journal"
	extReplSnap    = ".rsnap"
	extReplJournal = ".rjournal"
	extReplMeta    = ".rmeta"
	extMoved       = ".moved"
)

// topicNameRe bounds topic names to a filesystem- and URL-safe alphabet,
// so a topic's files under the data directory are always <name><suffix>
// with no escaping (and no path traversal).
var topicNameRe = regexp.MustCompile(`^[a-zA-Z0-9][a-zA-Z0-9._-]{0,127}$`)

// ValidTopicName reports whether name can name a topic's files.
func ValidTopicName(name string) error {
	if !topicNameRe.MatchString(name) {
		return fmt.Errorf("topic name %q must match %s", name, topicNameRe)
	}
	return nil
}

// Options set the compaction cadence: every batch appends one O(batch)
// journal record, and the O(state) snapshot is rewritten (and the journal
// restarted) every Every records — or sooner when the journal outgrows
// MaxBytes.
type Options struct {
	Every    int
	MaxBytes int64
}

func (o Options) withDefaults() Options {
	if o.Every <= 0 {
		o.Every = 64
	}
	if o.MaxBytes <= 0 {
		o.MaxBytes = 8 << 20
	}
	return o
}

// Store persists topic state under one data directory. A nil *Store
// disables persistence: the verbs a store-less daemon reaches are no-ops.
type Store struct {
	dir  string
	opts Options
	// fs is the failpoint layer every durable syscall goes through —
	// fault.OS in production, a fault.Script in the crash-point matrix and
	// the degraded-mode tests.
	fs   fault.FS
	logf func(format string, args ...any)
	// quarantined counts the files the loader refused to serve. The
	// startup scan writes it, but so can a move retry at request time
	// while healthz reads it, hence atomic.
	quarantined atomic.Int64

	// locks serializes snapshot-file saves and removes per topic name (and
	// each cold replica's frames under a key of its own, see replLock).
	// Neither the registry lock nor a per-topic mutex can play this role:
	// a name can be deleted and re-created while an older instance's save
	// is still in flight, and the two instances' saves hold different
	// topic mutexes. Entries are refcounted and dropped on last release, so
	// name churn does not grow the map without bound.
	lockMu sync.Mutex
	locks  map[string]*nameLock

	// replMu guards the registry of cold replicas held here. An entry is
	// added only by a durable install, and removed only under its replica
	// lock (replLock).
	replMu   sync.Mutex
	replicas map[string]*replica
}

type nameLock struct {
	mu   sync.Mutex
	refs int
}

// Open returns the store over dir, creating the directory if needed. An
// empty dir returns a nil store; a nil fsys means fault.OS.
func Open(dir string, opts Options, fsys fault.FS, logf func(format string, args ...any)) (*Store, error) {
	if dir == "" {
		return nil, nil
	}
	if fsys == nil {
		fsys = fault.OS
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("create data dir: %w", err)
	}
	return &Store{dir: dir, opts: opts.withDefaults(), fs: readMarked{fsys}, logf: logf,
		locks: make(map[string]*nameLock), replicas: make(map[string]*replica)}, nil
}

func (st *Store) path(file string) string { return filepath.Join(st.dir, file) }

// Quarantined reports how many files the loader has refused to serve.
func (st *Store) Quarantined() int {
	if st == nil {
		return 0
	}
	return int(st.quarantined.Load())
}

// lock acquires name's file lock and returns its release.
func (st *Store) lock(name string) (unlock func()) {
	st.lockMu.Lock()
	l := st.locks[name]
	if l == nil {
		l = new(nameLock)
		st.locks[name] = l
	}
	l.refs++
	st.lockMu.Unlock()
	l.mu.Lock()
	return func() {
		l.mu.Unlock()
		st.lockMu.Lock()
		if l.refs--; l.refs == 0 {
			delete(st.locks, name)
		}
		st.lockMu.Unlock()
	}
}

// replace atomically replaces <dir>/<file> with data: temp file → write →
// fsync → close → rename → directory fsync. A crash leaves the old bytes
// or the new bytes at the target, never a torn file; the directory fsync
// makes the rename survive a power failure, not just a process crash. The
// failpoint sites are <prefix>.tmp, .write, .sync, .rename and .cleanup.
// renamed reports that the rename landed: an error after it (the
// directory fsync's) leaves the target holding the new bytes now and the
// old or the new ones after a power failure.
func (st *Store) replace(prefix, file string, data []byte) (renamed bool, err error) {
	tmp, err := st.fs.CreateTemp(prefix+".tmp", st.dir, file+".tmp*")
	if err != nil {
		return false, err
	}
	defer st.fs.Remove(prefix+".cleanup", tmp.Name())
	if err := writeSyncClose(tmp, prefix, data); err != nil {
		return false, err
	}
	if err := st.fs.Rename(prefix+".rename", tmp.Name(), st.path(file)); err != nil {
		return false, err
	}
	return true, st.syncDir()
}

// writeSyncClose writes data to f and fsyncs it, closing f either way.
func writeSyncClose(f fault.File, prefix string, data []byte) error {
	_, err := f.Write(prefix+".write", data)
	if err == nil {
		err = f.Sync(prefix + ".sync")
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeJSON atomically replaces a small JSON marker file.
func (st *Store) writeJSON(prefix, file string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = st.replace(prefix, file, data)
	return err
}

func (st *Store) readJSON(site, file string, v any) error {
	data, err := st.fs.ReadFile(site, st.path(file))
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// readFailure is a file the store could not read, as opposed to one whose
// bytes do not decode: the disk failed, not the data, so the file may hold
// acked batches that skipping or quarantining it would give up.
type readFailure struct {
	file string
	err  error
}

func (e *readFailure) Error() string { return fmt.Sprintf("read %s: %v", e.file, e.err) }
func (e *readFailure) Unwrap() error { return e.err }

// unreadable reports whether err is, or wraps, a readFailure.
func unreadable(err error) bool {
	var rf *readFailure
	return errors.As(err, &rf)
}

// readMarked is the store's view of its fault.FS: a read that fails, but
// for a missing file, fails as a readFailure.
type readMarked struct{ fault.FS }

func (m readMarked) ReadFile(site, name string) ([]byte, error) {
	data, err := m.FS.ReadFile(site, name)
	if err != nil && !os.IsNotExist(err) {
		err = &readFailure{filepath.Base(name), err}
	}
	return data, err
}

// syncDir makes renames and newly created journal files durable.
func (st *Store) syncDir() error {
	return st.fs.SyncDir("persist.dir.sync", st.dir)
}

// exists reports whether <dir>/<file> may exist: any answer but "does not
// exist" counts, so a quarantine never clobbers what it cannot see.
func (st *Store) exists(file string) bool {
	_, err := os.Stat(st.path(file))
	return !os.IsNotExist(err)
}

// quarantine renames those of files that exist aside, in order, under the
// first suffix .<suffix>[.N] free for all of them — never clobbering an
// earlier quarantined copy, possible after an upgrade → rollback → upgrade
// cycle, and keeping files that belong together under one N — and counts
// each either way (renamed or merely skipped, it is not served).
func (st *Store) quarantine(suffix string, cause error, files ...string) {
	files = slices.DeleteFunc(files, func(file string) bool { return !st.exists(file) })
	st.quarantined.Add(int64(len(files)))
	for i := 0; i < 1000; i++ {
		at := "." + suffix
		if i > 0 {
			at = fmt.Sprintf("%s.%d", at, i)
		}
		if slices.ContainsFunc(files, func(file string) bool { return st.exists(file + at) }) {
			continue
		}
		for _, file := range files {
			if err := st.fs.Rename("persist.quarantine.rename", st.path(file), st.path(file+at)); err != nil {
				st.logf("skipping %s: %v (quarantine failed: %v)", file, cause, err)
				continue
			}
			st.logf("quarantined %s as %s: %v", file, file+at, cause)
		}
		return
	}
	st.logf("skipping %v: %v (no free quarantine name)", files, cause)
}

// Found is what the startup scan of the data directory holds.
type Found struct {
	Topics     map[string]*Restored
	Tombstones map[string]cluster.Tombstone
}

// Scan is the startup pass over the data directory, classifying every
// file by suffix. A file that cannot be served — invalid name, undecodable
// snapshot, inconsistent replica, damaged tombstone — is counted and
// skipped: it must not keep the daemon from serving the healthy topics.
// A file that cannot be read is not one of those: its bytes may be
// intact, and skipping it would serve a topic without its journal, a
// parked hand-off unfenced, or free a name whose re-create overwrites it.
// The scan stops there, renames nothing, and its error names the file.
// Orphaned temp files (a crash between create and rename) are deleted:
// startup is single-threaded, so no writer can own one, and each is an
// O(state) leak feeding the ENOSPC that may have caused it. Replicas are
// loaded, and kept by the store, only for a daemon that runs replication.
func (st *Store) Scan(withReplicas bool) (Found, error) {
	f := Found{
		Topics:     make(map[string]*Restored),
		Tombstones: make(map[string]cluster.Tombstone),
	}
	if st == nil {
		return f, nil
	}
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return f, err
	}
	for _, e := range entries {
		file, ext := e.Name(), filepath.Ext(e.Name())
		name := strings.TrimSuffix(file, ext)
		var err error
		// Journals and replica bases are read with the file they extend, and
		// anything else in the directory is not ours: no case for them.
		switch {
		case e.IsDir():
		case strings.HasPrefix(ext, ".tmp"):
			if k := filepath.Ext(name); k == extSnap || k == extReplSnap || k == extReplMeta || k == extMoved {
				st.logf("removing orphaned temp file %s", file)
				_ = st.fs.Remove("persist.tmp.remove", st.path(file))
			}
		case ext == extSnap:
			err = scanInto(f.Topics, name, st.Load)
		case ext == extReplMeta && withReplicas:
			err = scanInto(st.replicas, name, st.openReplica)
		case ext == extJournal && !st.exists(name+extSnap), ext == extReplJournal && !st.exists(name+extReplMeta):
			// A journal is read with the file it extends. One found alone
			// is read for its version: a crash in the quarantine below can
			// leave a refused journal so, where a re-create would truncate it.
			if _, err = journal.Load(st.fs, st.path(file)); !errors.Is(err, journal.ErrVersion) && !unreadable(err) {
				err = nil
			}
		case ext == extMoved:
			err = scanInto(f.Tombstones, name, st.readTombstone)
		}
		switch {
		case err == nil:
		case unreadable(err):
			return f, err
		case errors.Is(err, codec.ErrVersion), errors.Is(err, journal.ErrVersion):
			// A snapshot or journal of another format version is intact
			// data this build cannot replay, not corruption, and a snapshot
			// served without its journal silently loses the batches acked
			// after it. So a topic's files (a replica's base, meta and
			// tail) go aside together, under a suffix the scan ignores and
			// a re-create cannot overwrite. The refused file goes last: a
			// crash between the renames leaves it to be found again.
			files := []string{name + extSnap, name + extJournal}
			if errors.Is(err, codec.ErrVersion) {
				slices.Reverse(files)
			} else if ext == extReplMeta || ext == extReplJournal {
				files = []string{name + extReplSnap, name + extReplMeta, name + extReplJournal}
			}
			st.quarantine("unsupported-version", err, files...)
		default:
			st.quarantined.Add(1)
			st.logf("skipping %s: %v", file, err)
		}
	}
	return f, nil
}

// scanInto loads the file of a validly named topic into its kind's map.
func scanInto[V any](into map[string]V, name string, load func(name string) (V, error)) error {
	err := ValidTopicName(name)
	if err == nil {
		var v V
		if v, err = load(name); err == nil {
			into[name] = v
		}
	}
	return err
}

// Probe proves the data directory accepts durable writes: create, write,
// fsync and remove a probe file through the fault.FS — so an injected
// ENOSPC budget (or a real full disk) fails the probe exactly like it
// fails a journal append.
func (st *Store) Probe() error {
	path := st.path(".storage-probe")
	f, err := st.fs.OpenFile("storage.probe.open", path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err := writeSyncClose(f, "storage.probe", []byte("probe")); err != nil {
		return err
	}
	return st.fs.Remove("storage.probe.remove", path)
}
