package main

import (
	"triclust"
	"triclust/internal/store"
)

// ——— the commit path ———
//
// A batch's record is fsync-appended to the topic's journal before the
// topic takes the batch — runBatch hands the append to Topic.ProcessIf as
// its commit point — so memory never runs ahead of disk, and a failed
// append (503 storage_degraded) leaves the topic as it was. Then the
// batch is compacted if due, shipped (the followers store the same frame
// byte for byte) and acked. Snapshots are compaction — maintenance that
// bounds recovery time, never the thing an ack rests on.

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
		err = s.saveIfCurrent(tp, tp.eng)
	} else if err = tp.disk.Restart(rt.SnapCRC); err != nil {
		s.storage.noteFailure(tp, err)
	}
	if err != nil {
		s.logf("open journal of %q: %v", tp.name, err)
	}
}

// compactBatch follows the apply of a journaled batch (frame, due: what
// its append returned) and returns the frame the followers get: nil after
// a compaction, which re-bases them on the fresh snapshot so their replica
// journals restart as bounded tails. A failed compaction makes the topic
// read-only (saveIfCurrent) until the tick's storage step compacts it, but
// cannot un-ack a batch the journal already vouches for. Caller holds tp.mu.
func (s *server) compactBatch(tp *topic, frame []byte, due bool) []byte {
	if !due {
		return frame
	}
	if err := s.saveIfCurrent(tp, tp.eng); err != nil {
		s.logf("compaction of %q: %v (the batch is durable in the journal)", tp.name, err)
		return frame
	}
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

// saveIfCurrent compacts tp — eng's snapshot saved, then the journal
// restarted — if tp is still the topic the registry serves under its name (see
// store.Handle.Save for the locking that makes the re-check sound). Every
// caller holds tp.mu, which also guards the journal; under it a topic
// that admit has not refused is current, because only retire unregisters
// one. A retired topic's files are not its own any more: nothing is
// written and nothing is wrong. A failure is reported to the storage
// monitor, which makes the topic read-only.
func (s *server) saveIfCurrent(tp *topic, eng *triclust.Topic) error {
	if s.store == nil {
		return nil
	}
	err := tp.disk.Save(eng, s.diskOf)
	if err != nil {
		s.storage.noteFailure(tp, err)
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
