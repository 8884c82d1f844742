package store

import (
	"errors"
	"fmt"
	"os"

	"triclust"
	"triclust/internal/cluster"
	"triclust/internal/codec"
	"triclust/internal/journal"
)

// ReplicaMeta is the follower's durable description of one cold replica
// (<topic>.rmeta): who ships it, at what epoch, and the identity +
// fingerprint of the base snapshot its journal tail extends.
type ReplicaMeta struct {
	Source    string `json:"source"`
	Epoch     uint64 `json:"epoch"`
	SnapCRC   uint32 `json:"snap_crc"`
	Batches   int    `json:"batches"`
	RandDraws uint64 `json:"rand_draws"`
}

// Replica is one cold replica held for a peer: its durable meta, the
// position its base + tail reach, and the tail writer (opened lazily).
// None of its suffixes collide with .snap or .journal, so a replica is
// never mistaken for a served topic. The caller serializes access.
type Replica struct {
	Meta    ReplicaMeta
	Batches int
	Draws   uint64
	jw      *journal.Writer
}

// Close releases the tail writer; the files stay on disk.
func (rep *Replica) Close() {
	if rep.jw != nil {
		rep.jw.Close()
		rep.jw = nil
	}
}

// VerifyTail decodes raw journal frames and checks they chain gaplessly
// from the position after fromBatches to exactly (wantBatches, wantDraws).
// Callers verify before they write: nothing lands unless the whole tail
// verifies.
func VerifyTail(tail []byte, fromBatches, wantBatches int, fromDraws, wantDraws uint64) error {
	prevB, prevD := fromBatches, fromDraws
	for off := 0; off < len(tail); {
		rec, n, ok := journal.DecodeFrame(tail[off:])
		if !ok {
			return errors.New("undecodable record frame in tail")
		}
		if rec.Batches != prevB+1 {
			return fmt.Errorf("tail record at batch %d does not follow %d", rec.Batches, prevB)
		}
		prevB, prevD = rec.Batches, rec.RandDraws
		off += n
	}
	if prevB != wantBatches || prevD != wantDraws {
		return fmt.Errorf("tail ends at (batches=%d, draws=%d), frame declares (batches=%d, draws=%d)",
			prevB, prevD, wantBatches, wantDraws)
	}
	return nil
}

// InstallReplica replaces rep's base with a shipped snapshot and the tail
// extending it, reaching (batches, draws). The meta is written last: it
// vouches for base and tail, so a crash in between leaves files the
// startup cross-check refuses, and the primary re-ships a fresh base.
func (st *Store) InstallReplica(rep *Replica, name string, meta ReplicaMeta, snap, tail []byte, batches int, draws uint64) error {
	if err := st.replace("repl.snap", name+extReplSnap, snap); err != nil {
		return err
	}
	rep.Close()
	jw, err := journal.Create(st.fs, st.path(name+extReplJournal), meta.SnapCRC)
	if err != nil {
		return err
	}
	if len(tail) > 0 {
		err = jw.AppendFrames(tail)
	}
	if err == nil {
		err = st.writeJSON("repl.meta", name+extReplMeta, meta)
	}
	if err != nil {
		jw.Close()
		return err
	}
	rep.Meta, rep.jw, rep.Batches, rep.Draws = meta, jw, batches, draws
	return nil
}

// AppendReplica extends rep's journal tail with verified frames reaching
// (batches, draws), fsynced before it returns.
func (st *Store) AppendReplica(rep *Replica, name string, tail []byte, batches int, draws uint64) error {
	if rep.jw == nil {
		jw, _, err := journal.Open(st.fs, st.path(name+extReplJournal))
		if err != nil {
			return err
		}
		rep.jw = jw
	}
	var err error
	if rep.jw, err = st.appendFrames(rep.jw, name+extReplJournal, tail); err == nil {
		rep.Batches, rep.Draws = batches, draws
	}
	return err
}

// DropReplica deletes a cold replica's files.
func (st *Store) DropReplica(rep *Replica, name string) {
	rep.Close()
	_ = st.fs.Remove("repl.remove.snap", st.path(name+extReplSnap))
	_ = st.fs.Remove("repl.remove.journal", st.path(name+extReplJournal))
	_ = st.fs.Remove("repl.remove.meta", st.path(name+extReplMeta))
}

// readReplica is the base-plus-tail verification of a cold replica: the
// base snapshot must carry the CRC its meta names, and the tail journal
// must extend exactly that base. The tail is read first: one of another
// format version is journal.ErrVersion even if a crash mid-quarantine
// took the base.
func (st *Store) readReplica(name string, meta ReplicaMeta) ([]byte, *journal.Journal, error) {
	j, err := journal.Load(st.fs, st.path(name+extReplJournal))
	if err != nil {
		return nil, nil, fmt.Errorf("tail journal: %w", err)
	}
	if j.SnapCRC != meta.SnapCRC {
		return nil, nil, fmt.Errorf("tail journal extends snapshot %08x, meta names %08x", j.SnapCRC, meta.SnapCRC)
	}
	snap, err := st.fs.ReadFile("repl.snap.read", st.path(name+extReplSnap))
	if err != nil {
		return nil, nil, err
	}
	if crc := codec.Checksum(snap); crc != meta.SnapCRC {
		return nil, nil, fmt.Errorf("base snapshot CRC %08x does not match meta %08x", crc, meta.SnapCRC)
	}
	return snap, j, nil
}

// openReplica restores a cold replica found by the startup scan. It stays
// cold — verified, positioned, never decoded into a topic.
func (st *Store) openReplica(name string) (*Replica, error) {
	var meta ReplicaMeta
	if err := st.readJSON("repl.meta.read", name+extReplMeta, &meta); err != nil {
		return nil, fmt.Errorf("meta: %w", err)
	}
	_, j, err := st.readReplica(name, meta)
	if err != nil {
		return nil, err
	}
	rep := &Replica{Meta: meta, Batches: meta.Batches, Draws: meta.RandDraws}
	if n := len(j.Records); n > 0 {
		rep.Batches, rep.Draws = j.Records[n-1].Batches, j.Records[n-1].RandDraws
	}
	return rep, nil
}

// LoadReplica turns a cold replica into a live topic for promotion —
// the same loader as recovery, but strict: the tail holds acked batches no
// snapshot has, so one that does not replay to exactly the position the
// follower acknowledged refuses the promotion.
func (st *Store) LoadReplica(name string, rep *Replica) (*triclust.Topic, error) {
	snap, j, err := st.readReplica(name, rep.Meta)
	if err != nil {
		return nil, err
	}
	tp, tailErr, err := revive(snap, j.Records)
	if err != nil {
		return nil, fmt.Errorf("base snapshot undecodable: %w", err)
	}
	if tailErr != nil {
		return nil, fmt.Errorf("tail journal: %w", tailErr)
	}
	if b, d := tp.StreamPos(); b != rep.Batches || d != rep.Draws {
		return nil, fmt.Errorf("replica replays to (batches=%d, draws=%d), follower acknowledged (batches=%d, draws=%d)",
			b, d, rep.Batches, rep.Draws)
	}
	return tp, nil
}

// SetTombstone durably records that name was handed off — a move's
// fencing point, written like every other rename.
func (st *Store) SetTombstone(name string, ts cluster.Tombstone) error {
	if st == nil {
		return nil
	}
	defer st.lock(name)()
	return st.writeJSON("tombstone", name+extMoved, ts)
}

// ClearTombstone deletes name's hand-off marker; missing is not an error.
func (st *Store) ClearTombstone(name string) error {
	if st == nil {
		return nil
	}
	defer st.lock(name)()
	if err := st.fs.Remove("tombstone.remove", st.path(name+extMoved)); !os.IsNotExist(err) {
		return err
	}
	return nil
}

func (st *Store) readTombstone(name string) (cluster.Tombstone, error) {
	var ts cluster.Tombstone
	err := st.readJSON("tombstone.read", name+extMoved, &ts)
	if err == nil && ts.Target == "" {
		err = errors.New("tombstone names no target")
	}
	return ts, err
}
