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

// ErrReplicaOutOfSync refuses a frame the held replica cannot take: the
// primary must re-ship a full base.
var ErrReplicaOutOfSync = errors.New("re-ship a full base")

// Outranked refuses a frame older than the replica held: the epoch and
// source the replica is held at.
type Outranked struct {
	Epoch  uint64
	Source string
}

func (o *Outranked) Error() string {
	return fmt.Sprintf("held as a replica from %s at epoch %d", o.Source, o.Epoch)
}

func outOfSync(format string, args ...any) error {
	return fmt.Errorf(format+"; %w", append(args, ErrReplicaOutOfSync)...)
}

// replica is one cold replica held for a peer: its durable meta, the
// position its base + tail reach, and the tail writer (opened lazily).
// None of its suffixes collide with .snap or .journal, so a replica is
// never mistaken for a served topic. Its replLock guards it; it is
// registered, under replMu, with its meta final.
type replica struct {
	meta    ReplicaMeta
	batches int
	draws   uint64
	jw      *journal.Writer
}

func (rep *replica) close() {
	if rep.jw != nil {
		rep.jw.Close()
		rep.jw = nil
	}
}

// replLock serializes the frames, drop and promotion of name's cold
// replica. Its key is one no topic name can take, so it is never the
// name's file lock, which a promotion's save takes inside it.
func (st *Store) replLock(name string) (unlock func()) { return st.lock("replica/" + name) }

// held returns the replica registered under name, or nil.
func (st *Store) held(name string) *replica {
	st.replMu.Lock()
	defer st.replMu.Unlock()
	return st.replicas[name]
}

// Replicas lists the cold replicas held here with their meta.
func (st *Store) Replicas() map[string]ReplicaMeta {
	st.replMu.Lock()
	defer st.replMu.Unlock()
	out := make(map[string]ReplicaMeta, len(st.replicas))
	for name, rep := range st.replicas {
		out[name] = rep.meta
	}
	return out
}

// verifyTail decodes raw journal frames and checks they chain gaplessly
// from the position after fromBatches to exactly (wantBatches, wantDraws).
// Nothing lands unless the whole tail verifies.
func verifyTail(tail []byte, fromBatches, wantBatches int, fromDraws, wantDraws uint64) error {
	prevB, prevD := fromBatches, fromDraws
	for off := 0; off < len(tail); {
		rec, n, ok := journal.DecodeFrame(tail[off:])
		if !ok {
			return outOfSync("undecodable record frame in tail")
		}
		if rec.Batches != prevB+1 {
			return outOfSync("tail record at batch %d does not follow %d", rec.Batches, prevB)
		}
		prevB, prevD = rec.Batches, rec.RandDraws
		off += n
	}
	if prevB != wantBatches || prevD != wantDraws {
		return outOfSync("tail ends at (batches=%d, draws=%d), frame declares (batches=%d, draws=%d)",
			prevB, prevD, wantBatches, wantDraws)
	}
	return nil
}

// ApplyReplica folds one shipped frame into the cold replica of name and
// returns the position it reaches, verifying the frame before anything is
// fsynced. One older than the replica held is *Outranked; one that does
// not extend it (no base held, another base or epoch, a gap, a duplicate
// with other draws) is ErrReplicaOutOfSync; other errors are the disk's.
// Only a durable install registers a name; an exact duplicate is acked.
func (st *Store) ApplyReplica(name string, fr *codec.ReplAppend) (batches int, draws uint64, err error) {
	defer st.replLock(name)()
	rep := st.held(name)
	switch {
	case rep != nil && rep.meta.Epoch > fr.Epoch:
		return 0, 0, &Outranked{Epoch: rep.meta.Epoch, Source: rep.meta.Source}
	case fr.Snapshot != nil:
		rep, err = st.installReplica(rep, name, fr)
	case rep == nil:
		err = outOfSync("no replica of %q is held here", name)
	default:
		err = st.appendReplica(rep, name, fr)
	}
	if err != nil {
		return 0, 0, err
	}
	return rep.batches, rep.draws, nil
}

// installReplica replaces the base of rep (nil: none held) with a shipped
// snapshot and the tail extending it. The meta is written last: it vouches
// for base and tail, so a crash in between leaves files the startup
// cross-check refuses, and the primary re-ships a fresh base. A failure
// before the base's rename keeps rep as it was.
func (st *Store) installReplica(rep *replica, name string, fr *codec.ReplAppend) (*replica, error) {
	if err := verifyTail(fr.Tail, int(fr.BaseBatches), int(fr.Batches), fr.BaseRandDraws, fr.RandDraws); err != nil {
		return nil, fmt.Errorf("shipped tail does not extend the shipped base: %w", err)
	}
	meta := ReplicaMeta{Source: fr.Source, Epoch: fr.Epoch, SnapCRC: fr.SnapCRC,
		Batches: int(fr.BaseBatches), RandDraws: fr.BaseRandDraws}
	if err := st.replace("repl.snap", name+extReplSnap, fr.Snapshot); err != nil {
		return nil, err
	}
	// The base on disk is the shipped one now: if the rest fails, no replica
	// held here matches the files, so the name is held no more.
	if rep != nil {
		rep.close()
	}
	jw, err := journal.Create(st.fs, st.path(name+extReplJournal), meta.SnapCRC)
	if err == nil && len(fr.Tail) > 0 {
		err = jw.AppendFrames(fr.Tail)
	}
	if err == nil {
		err = st.writeJSON("repl.meta", name+extReplMeta, meta)
	}
	st.replMu.Lock()
	defer st.replMu.Unlock()
	if err != nil {
		if jw != nil {
			jw.Close()
		}
		delete(st.replicas, name)
		return nil, err
	}
	rep = &replica{meta: meta, batches: int(fr.Batches), draws: fr.RandDraws, jw: jw}
	st.replicas[name] = rep
	return rep, nil
}

// appendReplica extends rep's journal tail with shipped frames, fsynced
// before it returns.
func (st *Store) appendReplica(rep *replica, name string, fr *codec.ReplAppend) error {
	switch {
	case rep.meta.Epoch != fr.Epoch || rep.meta.SnapCRC != fr.SnapCRC:
		return outOfSync("replica of %q holds base %08x at epoch %d, frame extends %08x at epoch %d",
			name, rep.meta.SnapCRC, rep.meta.Epoch, fr.SnapCRC, fr.Epoch)
	case int(fr.Batches) == rep.batches && fr.RandDraws != rep.draws:
		// A same-epoch primary whose history diverged declares the right
		// batch count with the wrong draw fingerprint; acking it as a
		// duplicate would silently bless the fork.
		return outOfSync("frame at batch %d declares draws %d, replica recorded %d — histories diverged",
			fr.Batches, fr.RandDraws, rep.draws)
	case int(fr.Batches) <= rep.batches:
		// A duplicate delivery: the original append landed but its ack was
		// lost.
		return nil
	}
	if err := verifyTail(fr.Tail, rep.batches, int(fr.Batches), rep.draws, fr.RandDraws); err != nil {
		return err
	}
	if rep.jw == nil {
		jw, _, err := journal.Open(st.fs, st.path(name+extReplJournal))
		if err != nil {
			return err
		}
		rep.jw = jw
	}
	var err error
	if rep.jw, err = st.appendFrames(rep.jw, name+extReplJournal, fr.Tail); err == nil {
		rep.batches, rep.draws = int(fr.Batches), fr.RandDraws
	}
	return err
}

// DropReplica deletes the cold replica of name unless it is held at an
// epoch above epoch. Once it returns no file of the replica is left; one a
// failed first install left behind goes too.
func (st *Store) DropReplica(name string, epoch uint64) {
	defer st.replLock(name)()
	if rep := st.held(name); rep == nil || rep.meta.Epoch <= epoch {
		st.removeReplica(rep, name)
	}
}

// removeReplica unregisters rep (nil: none held) and deletes the files of
// name's replica. Its replica lock is held.
func (st *Store) removeReplica(rep *replica, name string) {
	if rep != nil {
		rep.close()
		st.replMu.Lock()
		delete(st.replicas, name)
		st.replMu.Unlock()
	}
	_ = st.fs.Remove("repl.remove.snap", st.path(name+extReplSnap))
	_ = st.fs.Remove("repl.remove.journal", st.path(name+extReplJournal))
	_ = st.fs.Remove("repl.remove.meta", st.path(name+extReplMeta))
}

// PromoteReplica turns the cold replica of name into a live topic and
// hands it, with the meta it is held at, to persist while the replica
// stays locked, so no frame, drop or other promotion lands in between.
// The load is recovery's, but strict: the tail holds acked batches no
// snapshot has, so one that does not replay to exactly the position the
// follower acknowledged refuses the promotion. The files are dropped only
// once persist succeeds; any error keeps them and the position.
func (st *Store) PromoteReplica(name string, persist func(tp *triclust.Topic, meta ReplicaMeta) error) error {
	defer st.replLock(name)()
	rep := st.held(name)
	if rep == nil {
		return fmt.Errorf("no replica of %q is held here", name)
	}
	snap, j, err := st.readReplica(name, rep.meta)
	if err != nil {
		return err
	}
	tp, tailErr, err := revive(snap, j.Records)
	switch {
	case err != nil:
		return fmt.Errorf("base snapshot undecodable: %w", err)
	case tailErr != nil:
		return fmt.Errorf("tail journal: %w", tailErr)
	}
	if b, d := tp.StreamPos(); b != rep.batches || d != rep.draws {
		return fmt.Errorf("replica replays to (batches=%d, draws=%d), follower acknowledged (batches=%d, draws=%d)",
			b, d, rep.batches, rep.draws)
	}
	if err := persist(tp, rep.meta); err != nil {
		return err
	}
	st.removeReplica(rep, name)
	return nil
}

// Close releases the cold replicas' tail writers once no frame can arrive;
// the files stay on disk.
func (st *Store) Close() {
	if st == nil {
		return
	}
	for name := range st.Replicas() {
		unlock := st.replLock(name)
		if rep := st.held(name); rep != nil {
			rep.close()
		}
		unlock()
	}
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
func (st *Store) openReplica(name string) (*replica, error) {
	var meta ReplicaMeta
	if err := st.readJSON("repl.meta.read", name+extReplMeta, &meta); err != nil {
		return nil, fmt.Errorf("meta: %w", err)
	}
	_, j, err := st.readReplica(name, meta)
	if err != nil {
		return nil, err
	}
	rep := &replica{meta: meta, batches: meta.Batches, draws: meta.RandDraws}
	if n := len(j.Records); n > 0 {
		rep.batches, rep.draws = j.Records[n-1].Batches, j.Records[n-1].RandDraws
	}
	st.logf("loaded replica %q (source %s, epoch %d, %d batches)", name, meta.Source, meta.Epoch, rep.batches)
	return rep, nil
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
