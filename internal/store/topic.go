package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"

	"triclust"
	"triclust/internal/codec"
	"triclust/internal/journal"
)

// Restored is one topic rebuilt from disk: the live topic, the CRC-32C of
// the snapshot file it was restored from, and how many journal records
// were replayed on top of that snapshot (> 0 means the in-memory state is
// ahead of the on-disk snapshot and should be compacted).
type Restored struct {
	Topic    *triclust.Topic
	SnapCRC  uint32
	Replayed int
}

// revive is the one way bytes on disk become a live topic: decode the
// base snapshot, then re-apply the journal tail through Topic.Process —
// the pipeline is deterministic, so the replay is bit-identical —
// verifying each record's post-batch fingerprint. A tail that does not
// replay is reported as tailErr beside the topic rebuilt from the base
// alone; whether that means "serve the snapshot" (recovery) or "refuse"
// (promotion) is the caller's policy.
func revive(snap []byte, recs []*journal.Record) (tp *triclust.Topic, tailErr, err error) {
	if tp, err = triclust.Restore(bytes.NewReader(snap)); err != nil {
		return nil, nil, err
	}
	for i, rec := range recs {
		out, perr := tp.Process(rec.Time, rec.Tweets)
		if perr == nil && out.Skipped {
			perr = errors.New("recorded batch replayed as an empty-batch skip")
		}
		if perr == nil {
			if b, d := tp.StreamPos(); b != rec.Batches || d != rec.RandDraws {
				perr = fmt.Errorf("fingerprint mismatch: replayed (batches=%d, draws=%d), recorded (batches=%d, draws=%d)",
					b, d, rec.Batches, rec.RandDraws)
			}
		}
		if perr != nil {
			tailErr = fmt.Errorf("replay of record %d/%d failed: %w", i+1, len(recs), perr)
			// Replay already advanced the topic; rebuild it from the base.
			tp, err = triclust.Restore(bytes.NewReader(snap))
			return tp, tailErr, err
		}
	}
	return tp, nil, nil
}

// Load rebuilds one topic from its snapshot + journal tail: at startup,
// and when a hand-off resumes from the files it left. Any problem with the
// journal — header undecodable, a different snapshot named, replay
// divergence — resolves to "serve the snapshot alone": that is exactly
// the state the journal's acked batches extended, minus records that can
// no longer be trusted. The journal is quarantined, or ignored when
// merely stale. One of another format version holds intact acked batches,
// and so may one that cannot be read: Load fails with journal.ErrVersion,
// or the read error, rather than serve the snapshot.
func (st *Store) Load(name string) (*Restored, error) {
	data, err := st.fs.ReadFile("persist.snap.read", st.path(name+extSnap))
	if err != nil {
		return nil, err
	}
	rt := &Restored{SnapCRC: codec.Checksum(data)}
	jfile := name + extJournal
	j, jerr := journal.Load(st.fs, st.path(jfile))
	switch {
	case unreadable(jerr):
		return nil, jerr
	case errors.Is(jerr, journal.ErrVersion):
		return nil, fmt.Errorf("%s: %w", jfile, jerr)
	}
	var recs []*journal.Record
	if jerr == nil && j.SnapCRC == rt.SnapCRC {
		recs = j.Records
	}
	tp, tailErr, err := revive(data, recs)
	if err != nil {
		return nil, err
	}
	rt.Topic = tp
	switch {
	case os.IsNotExist(jerr):
	case jerr != nil:
		st.quarantine("corrupt", jerr, jfile)
	case tailErr != nil:
		st.quarantine("corrupt", tailErr, jfile)
	case len(recs) < len(j.Records):
		// The journal extends a different (older or newer) snapshot — e.g. a
		// crash fell between snapshot rename and journal rotation. Its
		// records are already part of the snapshot or unverifiable; either
		// way the snapshot is the trustworthy state.
		st.logf("ignoring %s: it extends a different snapshot than %s%s", jfile, name, extSnap)
	default:
		if j.Torn && len(recs) > 0 {
			st.logf("%s has a torn final record (crash mid-append); replaying the %d intact records", jfile, len(recs))
		}
		rt.Replayed = len(recs)
	}
	return rt, nil
}

// HasSnapshot reports whether a topic's snapshot file is on disk.
func (st *Store) HasSnapshot(name string) bool {
	if st == nil {
		return false
	}
	_, err := os.Stat(st.path(name + extSnap))
	return err == nil
}

// RemoveStale deletes <name>.snap and its journal unless the files belong
// to the topic current(name) serves, i.e. unless that instance has
// completed a save under the per-name lock. This covers both the
// deleted-name case (no registered topic) and the re-created-but-not-yet-
// persisted case: there the file still holds a previous, deleted
// incarnation's state, and keeping it would resurrect that topic if the
// daemon crashed before the new topic's first save.
func (st *Store) RemoveStale(name string, current func(name string) *Handle) {
	if st == nil {
		return
	}
	defer st.lock(name)()
	if cur := current(name); cur == nil || !cur.saved {
		_ = st.fs.Remove("persist.remove.snap", st.path(name+extSnap))
		_ = st.fs.Remove("persist.remove.journal", st.path(name+extJournal))
	}
}

// Handle is the durable side of one registered topic instance: its open
// batch journal and whether its snapshot is the one on disk. A topic
// holds a journal from its first Save or Restart until Close; in between
// it has none only after a storage failure, until a Save re-creates it.
// The journal fields are guarded by the caller's topic lock.
type Handle struct {
	st   *Store
	name string
	jw   *journal.Writer
	// records counts the journal records appended since the last snapshot.
	records int
	// saved reports that a snapshot of this instance is on disk. Read and
	// written only under the name lock, where it tells RemoveStale whether
	// <name>.snap belongs to the registered topic or to a deleted earlier
	// incarnation of the name.
	saved bool
}

// Handle returns the durable side for a topic instance registering under
// name; saved says the startup scan loaded it from the snapshot on disk.
func (st *Store) Handle(name string, saved bool) *Handle {
	if st == nil {
		return nil
	}
	return &Handle{st: st, name: name, saved: saved}
}

// HasJournal reports whether appends can currently commit.
func (h *Handle) HasJournal() bool { return h.jw != nil }

// Close releases the journal handle; the file stays on disk.
func (h *Handle) Close() {
	if h != nil && h.jw != nil {
		h.jw.Close()
		h.jw = nil
	}
}

// Append makes one processed batch durable: its record — the inputs plus
// the post-batch fingerprint replay is verified against — is appended and
// fsynced. The returned frame is what a follower stores, byte for byte;
// due reports that the journal has reached its compaction cadence, and
// stays true after a failed compaction, so the next batch retries.
func (h *Handle) Append(ts int, tweets []triclust.Tweet, batches int, draws uint64) (frame []byte, due bool, err error) {
	frame, err = journal.EncodeFrame(&journal.Record{Time: ts, Tweets: tweets, Batches: batches, RandDraws: draws})
	if err == nil && h.jw == nil {
		// Only reachable on a topic a DELETE or a move is retiring right now.
		err = errors.New("topic has no open journal")
	}
	if err == nil {
		h.jw, err = h.st.appendFrames(h.jw, h.name+extJournal, frame)
	}
	if err != nil {
		return nil, false, err
	}
	h.records++
	return frame, h.records >= h.st.opts.Every || h.jw.Size() >= h.st.opts.MaxBytes, nil
}

// appendFrames appends frames to jw and fsyncs. A failed append leaves
// bytes of a never-acknowledged record, so the tail is cut back — recovery
// never has to guess about a torn frame. If even that fails nothing may be
// appended after the tail: the writer is closed and nil returned for it.
func (st *Store) appendFrames(jw *journal.Writer, file string, frames []byte) (*journal.Writer, error) {
	err := jw.AppendFrames(frames)
	if err != nil {
		if terr := jw.TruncateTail(); terr != nil {
			st.logf("truncate %s after failed append: %v (journal dropped)", file, terr)
			jw.Close()
			jw = nil
		}
	}
	return jw, err
}

// Save compacts the topic — snapshot atomically replaced, then the
// journal restarted against it — if h is still the instance current
// serves under its name; otherwise it writes nothing. Holding the per-name
// lock across that re-check and the write orders the save against
// concurrent removes and against saves of other same-named instances, so
// <name>.snap always holds the state of the topic a restarted daemon
// would be expected to serve under that name. Lock order is topic lock →
// name lock → registry lock (inside current). An error after the
// snapshot's rename leaves the handle without a journal: the open one
// extends the old snapshot, which disk may no longer hold.
func (h *Handle) Save(tp *triclust.Topic, current func(name string) *Handle) error {
	defer h.st.lock(h.name)()
	if current(h.name) != h {
		return nil
	}
	// Topic.Snapshot hands its writer the whole snapshot in one Write, so
	// there is no streaming to preserve by passing the file down.
	var snap bytes.Buffer
	var renamed bool
	err := tp.Snapshot(&snap)
	if err == nil {
		renamed, err = h.st.replace("persist.snap", h.name+extSnap, snap.Bytes())
	}
	if !renamed {
		return err
	}
	h.saved = true
	if err != nil {
		h.Close()
		return err
	}
	return h.Restart(codec.Checksum(snap.Bytes()))
}

// Restart restarts the journal empty, extending the snapshot with
// checksum snapCRC, so recovery cost is bounded by the records since that
// snapshot. An open journal rotates in place on its own descriptor;
// without one — a new topic, a restart, a failed rotate — the file is
// created. An error leaves the handle without a journal. Outside Save
// only single-threaded startup calls it, where the name lock is moot.
func (h *Handle) Restart(snapCRC uint32) error {
	h.records = 0
	if h.jw != nil {
		err := h.jw.Rotate(snapCRC)
		if err == nil {
			return nil
		}
		h.st.logf("journal rotate %q: %v (recreating)", h.name, err)
		h.Close()
	}
	jw, err := journal.Create(h.st.fs, h.st.path(h.name+extJournal), snapCRC)
	if err != nil {
		return fmt.Errorf("journal create: %w", err)
	}
	if err := h.st.syncDir(); err != nil {
		jw.Close()
		return fmt.Errorf("journal dir sync: %w", err)
	}
	h.jw = jw
	return nil
}
