package main

import (
	"net/http"

	"triclust"
	"triclust/internal/store"
)

// ——— the commit path ———
//
// How a batch becomes durable is decided here and nowhere else: its frame
// is fsync-appended to the topic's journal, shipped to the followers (by
// update, server.go) and acked. Snapshots are compaction — maintenance
// that bounds recovery time, never the thing an ack rests on.

// openJournal gives a topic loaded at startup its journal, so the first
// batch after a restart commits by an O(batch) append like every other.
// Replayed records are first folded into a fresh snapshot — a restart
// never begins with a growing recovery debt; if that fails the journal
// on disk still holds them, and the topic waits degraded for the write
// probe to compact. With nothing replayed the journal restarts empty
// against the snapshot just loaded.
func (s *server) openJournal(tp *topic, rt *store.Restored) {
	var err error
	if rt.Replayed > 0 {
		err = s.saveIfCurrent(tp)
	} else if err = tp.disk.Restart(rt.SnapCRC); err != nil {
		s.storage.noteFailure(tp, err)
	}
	if err != nil {
		s.logf("open journal of %q: %v", tp.name, err)
	}
}

// commit makes the batch tp just processed durable before it is acked:
// append + fsync the frame, returned so update ships the same bytes to the
// followers (they verify and store them without re-encoding). The append
// is the one durable write a batch depends on, so its failure is the one
// failure a client sees: 503 journal_write_failed, after update rolled the
// topic back. A compaction point comes after the frame is durable; a
// failed compaction is counted by the storage monitor (in saveIfCurrent)
// and retried on the next batch — the journal stays past its cadence — but
// cannot un-ack a batch the journal already vouches for. Caller holds
// tp.mu.
func (s *server) commit(tp *topic, ts int, tweets []triclust.Tweet) ([]byte, *apiError) {
	batches, draws := tp.eng().StreamPos()
	frame, due, err := tp.disk.Append(ts, tweets, batches, draws)
	if err != nil {
		s.storage.noteFailure(tp, err)
		return nil, errf(http.StatusServiceUnavailable, codeJournalWriteFailed, "batch processed but not durable: %w", err)
	}
	if !due {
		s.storage.noteSuccess(tp)
	} else if err := s.saveIfCurrent(tp); err != nil {
		s.logf("compaction of %q: %v (the batch is durable in the journal)", tp.name, err)
	} else {
		// A compaction re-bases the followers too: ship the fresh snapshot
		// (a nil frame) so their replica journals restart as bounded tails.
		frame = nil
	}
	return frame, nil
}

// rollback resolves a mutation whose durable write failed (disk full, I/O
// error) with cause. The mutation already ran in memory — so (the store
// having truncated any torn journal tail) the topic is reloaded to exactly
// what disk vouches for, and the request answers cause. The topic stays
// served (reads, retries) and healthz reports it degraded until a durable
// write succeeds.
//
// If the reload itself fails there is no trustworthy state to fall back
// to: the topic is parked — reads and writes both refuse — until a
// storage probe re-reads disk successfully. (File-level quarantine of
// undecodable snapshots/journals already happens inside the store's
// load; parking covers the unreadable-disk case, where renaming files
// aside could destroy a perfectly good snapshot over a transient read
// error.)
func (s *server) rollback(tp *topic, cause *apiError) *apiError {
	if rerr := s.reloadFromDisk(tp); rerr != nil {
		tp.disk.Close()
		s.storage.park(tp, rerr)
		return errf(http.StatusServiceUnavailable, codeStorageDegraded,
			"the rollback re-read failed too (%v): %w", rerr, cause)
	}
	return cause
}

// reloadFromDisk swaps in an engine rebuilt from tp's on-disk state —
// the rollback for any point where memory ran ahead of what disk vouches
// for. The ownership epoch and the conformance mode are runtime state a
// reload must carry over. Caller holds tp.mu.
func (s *server) reloadFromDisk(tp *topic) error {
	epoch := tp.eng().Epoch()
	rt, err := s.store.Load(tp.name)
	if err != nil {
		return err
	}
	rt.Topic.SetEpoch(epoch)
	rt.Topic.SetConformanceMode(s.conform)
	tp.engp.Store(rt.Topic)
	return nil
}

// diskOf returns the durable side of the topic the registry serves under
// name (nil: none) — how the store tells the current instance of a name
// from a deleted earlier incarnation.
func (s *server) diskOf(name string) *store.Handle {
	if tp, _ := s.route(name); tp != nil {
		return tp.disk
	}
	return nil
}

// saveIfCurrent compacts tp — snapshot save, then journal restart — if
// tp is still the topic the registry serves under its name (see
// store.Handle.Save for the locking that makes the re-check sound). Every
// caller holds tp.mu, which also guards the journal; under it a topic
// that admit has not refused is current, because only retire unregisters
// one. A retired topic's files are not its own any more: nothing is
// written and nothing is wrong. The outcome is reported to the storage
// monitor either way.
func (s *server) saveIfCurrent(tp *topic) error {
	if s.store == nil {
		return nil
	}
	current, err := tp.disk.Save(tp.eng(), s.diskOf)
	if err != nil {
		s.storage.noteFailure(tp, err)
	} else if current {
		s.storage.noteSuccess(tp)
	}
	return err
}

// retire takes tp out of service for good (delete, hand-off, fencing, a
// create that could not be persisted) — the one way a topic leaves the
// registry: its state turns terminal so no batch, save or recovery may
// follow, it is unregistered, its journal handle released. It reports
// false if tp was retired already. Caller holds tp.mu.
func (s *server) retire(tp *topic) bool {
	if !tp.setState(stRetired) {
		return false
	}
	s.mu.Lock()
	if s.topics[tp.name] == tp {
		delete(s.topics, tp.name)
	}
	s.mu.Unlock()
	tp.disk.Close()
	return true
}
