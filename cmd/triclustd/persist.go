package main

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync/atomic"

	"triclust"
	"triclust/internal/codec"
	"triclust/internal/fault"
	"triclust/internal/journal"
)

// topicNameRe bounds topic names to a filesystem- and URL-safe alphabet,
// so a topic's snapshot file under -data-dir is always <name>.snap with
// no escaping (and no path traversal).
var topicNameRe = regexp.MustCompile(`^[a-zA-Z0-9][a-zA-Z0-9._-]{0,127}$`)

func validTopicName(name string) error {
	if !topicNameRe.MatchString(name) {
		return fmt.Errorf("topic name %q must match %s", name, topicNameRe)
	}
	return nil
}

// journalOptions set the compaction cadence: every batch appends one
// O(batch) journal record, and the O(state) snapshot is rewritten (and
// the journal restarted) every Every records — or sooner when the journal
// outgrows MaxBytes.
type journalOptions struct {
	Every    int
	MaxBytes int64
}

func (o journalOptions) withDefaults() journalOptions {
	if o.Every <= 0 {
		o.Every = 64
	}
	if o.MaxBytes <= 0 {
		o.MaxBytes = 8 << 20
	}
	return o
}

// store persists topic state under a data directory: one <topic>.snap
// full snapshot per topic, written atomically (temp file + rename), plus
// an append-only <topic>.journal holding the batches processed since that
// snapshot (see internal/journal). A nil *store disables persistence.
type store struct {
	dir  string
	opts journalOptions
	// fs is the failpoint layer every durable syscall of this store (and
	// of the journals, tombstones, and replica files under its dir) goes
	// through — fault.OS in production, a fault.Script in the crash-point
	// matrix and the degraded-mode tests.
	fs fault.FS
	// quarantined counts the files the loader refused to serve —
	// quarantined snapshots/journals plus unreadable or unrecognized
	// strays. Mostly written by the startup scan, but a cluster move
	// retry can quarantine a journal at request time (resumeMove →
	// recoverJournal) while GET /v1/healthz reads the counter, hence
	// atomic. Exposing it means a restarted shard's operator (or the
	// cluster harness awaiting readiness) sees quarantine instead of
	// having to list the directory.
	quarantined atomic.Int64
}

func newStore(dir string, opts journalOptions, fsys fault.FS) (*store, error) {
	if dir == "" {
		return nil, nil
	}
	if fsys == nil {
		fsys = fault.OS
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("create data dir: %w", err)
	}
	return &store{dir: dir, opts: opts.withDefaults(), fs: fsys}, nil
}

func (st *store) path(name string) string {
	return filepath.Join(st.dir, name+".snap")
}

func (st *store) journalPath(name string) string {
	return filepath.Join(st.dir, name+".journal")
}

// Replica files: a cold replica held for a peer is <topic>.rsnap (base
// snapshot bytes), <topic>.rjournal (CRC-framed tail extending it) and
// <topic>.rmeta (JSON replMeta). None of the suffixes collide with .snap
// or .journal, so loadAll never mistakes a replica for a served topic.
func (st *store) replSnapPath(name string) string {
	return filepath.Join(st.dir, name+".rsnap")
}

func (st *store) replJournalPath(name string) string {
	return filepath.Join(st.dir, name+".rjournal")
}

func (st *store) replMetaPath(name string) string {
	return filepath.Join(st.dir, name+".rmeta")
}

// save writes one topic's snapshot atomically: a crash mid-write leaves
// the previous snapshot intact, never a torn file (and Restore would
// reject a torn file by checksum anyway). It returns the CRC-32C of the
// written file — the identity a journal extending this snapshot records.
func (st *store) save(name string, tp *triclust.Topic) (uint32, error) {
	if st == nil {
		return 0, nil
	}
	tmp, err := st.fs.CreateTemp("persist.snap.tmp", st.dir, name+".snap.tmp*")
	if err != nil {
		return 0, err
	}
	defer st.fs.Remove("persist.snap.cleanup", tmp.Name())
	cw := journal.NewCRCWriter(fault.SiteWriter(tmp, "persist.snap.write"))
	if err := tp.Snapshot(cw); err != nil {
		tmp.Close()
		return 0, err
	}
	if err := tmp.Sync("persist.snap.sync"); err != nil {
		tmp.Close()
		return 0, err
	}
	if err := tmp.Close(); err != nil {
		return 0, err
	}
	if err := st.fs.Rename("persist.snap.rename", tmp.Name(), st.path(name)); err != nil {
		return 0, err
	}
	// The rename itself must be durable too: fsync the directory so the
	// new entry survives a power failure, not just a process crash.
	if err := st.syncDir(); err != nil {
		return 0, err
	}
	return cw.Sum(), nil
}

// syncDir fsyncs the data directory, making renames and newly created
// journal files durable.
func (st *store) syncDir() error {
	return st.fs.SyncDir("persist.dir.sync", st.dir)
}

// quarantineName returns the first unoccupied quarantine filename for
// base (base.<suffix>, then .1, .2, …), or "" if none of the bounded
// candidates is free.
func quarantineName(dir, base, suffix string) string {
	for i := 0; i < 1000; i++ {
		cand := base + "." + suffix
		if i > 0 {
			cand = fmt.Sprintf("%s.%d", cand, i)
		}
		if _, err := os.Stat(filepath.Join(dir, cand)); os.IsNotExist(err) {
			return cand
		}
	}
	return ""
}

// quarantine renames a file aside under the first free base.<suffix>
// name, reporting what happened through warn and counting the file as
// quarantined either way (renamed or merely skipped, it is not served).
func (st *store) quarantine(name, suffix string, warn func(format string, args ...any), cause error) {
	st.quarantined.Add(1)
	q := quarantineName(st.dir, name, suffix)
	if q == "" {
		warn("skipping %s: %v (no free quarantine name)", name, cause)
		return
	}
	if err := st.fs.Rename("persist.quarantine.rename", filepath.Join(st.dir, name), filepath.Join(st.dir, q)); err != nil {
		warn("skipping %s: %v (quarantine failed: %v)", name, cause, err)
		return
	}
	warn("quarantined %s as %s: %v", name, q, cause)
}

// remove deletes a topic's snapshot and journal (if any).
func (st *store) remove(name string) {
	if st != nil {
		_ = st.fs.Remove("persist.remove.snap", st.path(name))
		_ = st.fs.Remove("persist.remove.journal", st.journalPath(name))
	}
}

// snapExists reports whether a topic's snapshot file is on disk (used to
// detect interrupted hand-offs: tombstone + snapshot = pending move).
func (st *store) snapExists(name string) bool {
	if st == nil {
		return false
	}
	_, err := os.Stat(st.path(name))
	return err == nil
}

// restoredTopic is one topic rebuilt from disk: the live topic, the
// CRC-32C of the snapshot file it was restored from, and how many journal
// records were replayed on top of that snapshot (> 0 means the in-memory
// state is ahead of the on-disk snapshot and should be compacted).
type restoredTopic struct {
	tp       *triclust.Topic
	snapCRC  uint32
	replayed int
}

// loadAll restores every *.snap file in the data directory, replaying
// each topic's journal tail on top of its snapshot. Undecodable
// snapshots (and stray files) are reported but skipped: one corrupt file
// must not keep the daemon from serving the healthy topics. Undecodable
// or mismatched journals are quarantined/ignored — the snapshot alone is
// served, which is exactly the state the journal's acked batches
// extended, minus records that can no longer be trusted.
func (st *store) loadAll(warn func(format string, args ...any)) (map[string]*restoredTopic, error) {
	if st == nil {
		return nil, nil
	}
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return nil, err
	}
	out := make(map[string]*restoredTopic)
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".snap") {
			continue
		}
		name := strings.TrimSuffix(e.Name(), ".snap")
		if err := validTopicName(name); err != nil {
			st.quarantined.Add(1)
			warn("skipping %s: %v", e.Name(), err)
			continue
		}
		rt, err := st.loadTopic(name, warn)
		if errors.Is(err, codec.ErrVersion) {
			// An old-format snapshot is not corrupt — it is intact data
			// this build cannot replay (e.g. a version-1 file whose
			// random-stream position belongs to the old generator).
			// Quarantine it under a suffix the loader ignores, so
			// re-creating the topic cannot atomically overwrite the only
			// copy of the old state. The quarantine name itself must not
			// clobber an earlier quarantined copy (possible after an
			// upgrade → rollback → upgrade cycle), so pick the first free
			// slot.
			st.quarantine(e.Name(), "unsupported-version", warn, err)
			continue
		}
		if err != nil {
			st.quarantined.Add(1)
			warn("skipping %s: %v", e.Name(), err)
			continue
		}
		out[name] = rt
	}
	return out, nil
}

// loadTopic rebuilds one topic from its on-disk state (snapshot +
// journal tail): the one way disk becomes a live topic, at startup and
// at every later rollback to what disk vouches for.
func (st *store) loadTopic(name string, warn func(format string, args ...any)) (*restoredTopic, error) {
	data, err := st.fs.ReadFile("persist.snap.read", st.path(name))
	if err != nil {
		return nil, err
	}
	tp, err := triclust.Restore(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	rt := &restoredTopic{tp: tp}
	rt.replayed = st.recoverJournal(name, rt, data, warn)
	return rt, nil
}

// recoverJournal replays <name>.journal on top of the freshly restored
// topic, returning how many records were applied (and recording the
// snapshot's checksum in rt). Any problem — header
// undecodable, journal naming a different snapshot, replay divergence —
// resolves to "serve the snapshot alone": the journal is quarantined (or
// ignored when merely stale) and the topic re-restored from the snapshot
// bytes if replay had already touched it.
func (st *store) recoverJournal(name string, rt *restoredTopic, snapData []byte, warn func(format string, args ...any)) int {
	rt.snapCRC = codec.Checksum(snapData)
	jp := st.journalPath(name)
	j, err := journal.Load(st.fs, jp)
	if err != nil {
		if os.IsNotExist(err) {
			return 0
		}
		st.quarantine(name+".journal", "corrupt", warn, err)
		return 0
	}
	if len(j.Records) == 0 {
		return 0
	}
	if j.SnapCRC != rt.snapCRC {
		// The journal extends a different (older or newer) snapshot —
		// e.g. a crash fell between snapshot rename and journal rotation.
		// Its records are already part of the snapshot or unverifiable;
		// either way the snapshot is the trustworthy state.
		warn("ignoring %s.journal: it extends a different snapshot than %s.snap", name, name)
		return 0
	}
	if j.Torn {
		warn("%s.journal has a torn final record (crash mid-append); replaying the %d intact records", name, len(j.Records))
	}
	if err := replayRecords(rt.tp, j.Records); err != nil {
		st.quarantine(name+".journal", "corrupt", warn, err)
		// Replay already advanced the topic; rebuild it from the
		// snapshot alone.
		fresh, rerr := triclust.Restore(bytes.NewReader(snapData))
		if rerr != nil {
			warn("re-restore %s.snap after failed replay: %v", name, rerr)
			return 0
		}
		rt.tp = fresh
		return 0
	}
	return len(j.Records)
}

// replayRecords re-applies journaled batches to tp through Topic.Process
// — the pipeline is deterministic, so the replay is bit-identical —
// verifying each record's post-batch fingerprint.
func replayRecords(tp *triclust.Topic, recs []*journal.Record) error {
	for i, rec := range recs {
		out, err := tp.Process(rec.Time, rec.Tweets)
		if err == nil && out.Skipped {
			err = errors.New("recorded batch replayed as an empty-batch skip")
		}
		if err == nil {
			if b, d := tp.StreamPos(); b != rec.Batches || d != rec.RandDraws {
				err = fmt.Errorf("fingerprint mismatch: replayed (batches=%d, draws=%d), recorded (batches=%d, draws=%d)",
					b, d, rec.Batches, rec.RandDraws)
			}
		}
		if err != nil {
			return fmt.Errorf("replay of record %d/%d failed: %w", i+1, len(recs), err)
		}
	}
	return nil
}

// ——— the commit path ———
//
// How a batch becomes durable is decided here and nowhere else: its frame
// is fsync-appended to the topic's journal, shipped to the followers and
// acked. Snapshots are compaction — maintenance that bounds recovery
// time, never the thing an ack rests on.

// journalState is a persisted topic's open batch journal: jw appends to
// <topic>.journal, jRecords counts the records appended since the last
// snapshot. A topic holds a journal from the moment it enters the
// registry until retire closes it; jw is nil in between only while the
// topic's storage is degraded or parked (see errNoJournal).
type journalState struct {
	jw       *journal.Writer
	jRecords int
}

func (j *journalState) closeJournal() {
	if j.jw != nil {
		j.jw.Close()
		j.jw = nil
	}
}

// errNoJournal marks a storage failure that left a topic without an open
// journal. Unlike a failed append it is no transient — nothing can commit
// until a compaction re-creates the journal — so the storage monitor
// degrades the topic at once and its write probe retries the compaction.
var errNoJournal = errors.New("topic has no open journal")

// storageFailed reports a failed durable write on tp to the storage
// monitor, marked errNoJournal if it left tp without a journal, and
// returns the error as reported. Caller holds tp.mu.
func (s *server) storageFailed(tp *topic, err error) error {
	if tp.jw == nil && !errors.Is(err, errNoJournal) {
		err = fmt.Errorf("%w: %w", errNoJournal, err)
	}
	s.storage.noteFailure(tp, err)
	return err
}

// openJournal gives a topic loaded at startup its journal, so the first
// batch after a restart commits by an O(batch) append like every other.
// Replayed records are first folded into a fresh snapshot — a restart
// never begins with a growing recovery debt; if that fails the journal
// on disk still holds them, and the topic waits degraded for the write
// probe to compact. With nothing replayed the journal restarts empty
// against the snapshot just loaded. Startup is single-threaded, so the
// per-name lock rotateJournal otherwise needs is moot.
func (s *server) openJournal(tp *topic, rt *restoredTopic) {
	var err error
	if rt.replayed > 0 {
		_, err = s.saveIfCurrent(tp)
	} else if err = s.rotateJournal(tp, rt.snapCRC); err != nil {
		err = s.storageFailed(tp, err)
	}
	if err != nil {
		s.logf("open journal of %q: %v", tp.name, err)
	}
}

// commit makes the batch tp just processed durable before it is acked:
// append + fsync the frame, ship the same bytes to the followers (they
// verify and store them without re-encoding). The append is the one
// durable write a batch depends on, so its failure is the one failure a
// client sees: the topic is rolled back to disk and the batch answers
// 503. A compaction point comes after the frame is durable; a failed
// compaction is counted by the storage monitor (in saveIfCurrent) and
// retried on the next batch — jRecords stays past the cadence — but
// cannot un-ack a batch the journal already vouches for. Caller holds
// tp.mu; a non-nil error carries the HTTP status and stable code.
func (s *server) commit(tp *topic, ts int, tweets []triclust.Tweet) (int, string, error) {
	batches, draws := tp.eng().StreamPos()
	rec := journal.Record{Time: ts, Tweets: tweets, Batches: batches, RandDraws: draws}
	frame, err := journal.EncodeFrame(&rec)
	switch {
	case err != nil:
	case tp.jw == nil:
		// Only reachable on a topic a DELETE or a move is retiring right now.
		err = errNoJournal
	default:
		err = tp.jw.AppendFrames(frame)
	}
	if err != nil {
		return s.rollback(tp, err)
	}
	tp.jRecords++
	if tp.jRecords < s.store.opts.Every && tp.jw.Size() < s.store.opts.MaxBytes {
		s.storage.noteSuccess(tp)
	} else if compacted, err := s.saveIfCurrent(tp); err != nil {
		s.logf("compaction of %q: %v (the batch is durable in the journal)", tp.name, err)
	} else if compacted {
		// A compaction re-bases the followers too: ship the fresh snapshot
		// (a nil frame) so their replica journals restart as bounded tails.
		frame = nil
	}
	return s.replShip(tp, frame, batches, draws, false)
}

// rollback resolves a batch the journal did not take (disk full, I/O
// error). The batch already ran in memory, but acknowledging it would
// promise durability the disk refused — so the on-disk tail is truncated
// (the failed append leaves no ambiguous torn frame for recovery to guess
// about), the topic is reloaded to exactly what disk vouches for, and
// the batch fails with 503 journal_write_failed. The topic stays served
// (reads, retries) and healthz reports it degraded until a durable write
// succeeds.
//
// If the reload itself fails there is no trustworthy state to fall back
// to: the topic is parked — reads and writes both refuse — until a
// storage probe re-reads disk successfully. (File-level quarantine of
// undecodable snapshots/journals already happens inside loadTopic;
// parking covers the unreadable-disk case, where renaming files aside
// could destroy a perfectly good snapshot over a transient read error.)
func (s *server) rollback(tp *topic, cause error) (int, string, error) {
	if tp.jw != nil {
		if terr := tp.jw.TruncateTail(); terr != nil {
			// The tail could not even be truncated: no batch may be appended
			// after it. Drop the journal; recovery re-creates it.
			s.logf("journal truncate %q after failed append: %v", tp.name, terr)
			tp.closeJournal()
		}
	}
	if rerr := s.reloadFromDisk(tp); rerr != nil {
		tp.closeJournal()
		s.storage.park(tp, rerr)
		return http.StatusServiceUnavailable, codeStorageDegraded,
			fmt.Errorf("batch processed but not durable, and the rollback re-read failed (%v): %w", rerr, cause)
	}
	return http.StatusServiceUnavailable, codeJournalWriteFailed,
		fmt.Errorf("batch processed but not durable: %w", s.storageFailed(tp, cause))
}

// reloadFromDisk swaps in an engine rebuilt from tp's on-disk state —
// the rollback for any point where memory ran ahead of what disk vouches
// for. The ownership epoch and the conformance mode are runtime state a
// reload must carry over. Caller holds tp.mu.
func (s *server) reloadFromDisk(tp *topic) error {
	epoch := tp.eng().Epoch()
	rt, err := s.store.loadTopic(tp.name, s.logf)
	if err != nil {
		return err
	}
	rt.tp.SetEpoch(epoch)
	rt.tp.SetConformanceMode(s.conform)
	tp.engp.Store(rt.tp)
	return nil
}

// saveIfCurrent compacts tp — snapshot save, then journal restart — if
// tp is still the topic the registry serves under its name, reporting
// whether it was. Holding the per-name lock across the registry re-check
// and the write orders the save against concurrent removes and against
// saves of other same-named instances, so <name>.snap always holds the
// state of the topic a restarted daemon would be expected to serve under
// that name. Lock order here and in every other path is tp.mu → name
// lock → s.mu; every caller holds tp.mu, which also guards the journal.
// The outcome is reported to the storage monitor either way.
func (s *server) saveIfCurrent(tp *topic) (bool, error) {
	if s.store == nil {
		return true, nil
	}
	l := s.lockName(tp.name)
	defer s.unlockName(tp.name, l)
	s.mu.RLock()
	current := s.topics[tp.name] == tp
	s.mu.RUnlock()
	if !current {
		return false, nil
	}
	crc, err := s.store.save(tp.name, tp.eng())
	if err == nil {
		tp.saved = true
		err = s.rotateJournal(tp, crc)
	}
	if err != nil {
		return true, s.storageFailed(tp, err)
	}
	s.storage.noteSuccess(tp)
	return true, nil
}

// rotateJournal restarts tp's journal empty, extending the snapshot with
// checksum snapCRC, so recovery cost is bounded by the records since that
// snapshot. An open journal rotates in place on its own descriptor
// (journal.Writer.Rotate); without one — a new topic, a restart, a failed
// rotate — the file is created. An error leaves tp without a journal.
// Called with tp.mu and the per-name lock held.
func (s *server) rotateJournal(tp *topic, snapCRC uint32) error {
	tp.jRecords = 0
	if tp.jw != nil {
		err := tp.jw.Rotate(snapCRC)
		if err == nil {
			return nil
		}
		s.logf("journal rotate %q: %v (recreating)", tp.name, err)
		tp.closeJournal()
	}
	jw, err := journal.Create(s.store.fs, s.store.journalPath(tp.name), snapCRC)
	if err != nil {
		return fmt.Errorf("journal create: %w", err)
	}
	if err := s.store.syncDir(); err != nil {
		jw.Close()
		return fmt.Errorf("journal dir sync: %w", err)
	}
	tp.jw = jw
	return nil
}

// retire takes tp out of service for good (delete, hand-off, fencing, a
// create that could not be persisted): unregistered if the registry
// still serves this instance, marked deleted so no batch or save may
// follow, its journal handle released. Caller holds tp.mu.
func (s *server) retire(tp *topic) {
	s.mu.Lock()
	if s.topics[tp.name] == tp {
		delete(s.topics, tp.name)
	}
	s.mu.Unlock()
	tp.deleted = true
	tp.closeJournal()
}
