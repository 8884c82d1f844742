package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"triclust"
	"triclust/internal/codec"
	"triclust/internal/fault"
	"triclust/internal/journal"
)

// replicaStream is a short real stream as its primary ships it: the base
// snapshot at batch 0 and the journal frame of each batch after it, with
// the draw fingerprint each batch reaches (draws[b] after batch b).
type replicaStream struct {
	snap   []byte
	frames [][]byte
	draws  []uint64
}

func newReplicaStream(t *testing.T, batches int) *replicaStream {
	t.Helper()
	tp, err := triclust.NewTopic([]triclust.User{{Name: "a", Label: triclust.NoLabel}, {Name: "b", Label: triclust.NoLabel}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tp.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	rs := &replicaStream{snap: buf.Bytes()}
	_, d := tp.StreamPos()
	rs.draws = append(rs.draws, d)
	for day := 1; day <= batches; day++ {
		tweets := []triclust.Tweet{
			{Text: "love great win support", User: 0, Time: day, RetweetOf: -1, Label: triclust.NoLabel},
			{Text: "hate awful loss sad", User: 1, Time: day, RetweetOf: -1, Label: triclust.NoLabel},
		}
		if _, err := tp.Process(day, tweets); err != nil {
			t.Fatal(err)
		}
		b, d := tp.StreamPos()
		frame, err := journal.EncodeFrame(&journal.Record{Time: day, Tweets: tweets, Batches: b, RandDraws: d})
		if err != nil {
			t.Fatal(err)
		}
		rs.frames = append(rs.frames, frame)
		rs.draws = append(rs.draws, d)
	}
	return rs
}

const replSource = "http://primary.test"

// base is the full-base frame at epoch 1 reaching batch b.
func (rs *replicaStream) base(b int) *codec.ReplAppend {
	return &codec.ReplAppend{Source: replSource, Epoch: 1, SnapCRC: codec.Checksum(rs.snap),
		BaseRandDraws: rs.draws[0], Batches: uint64(b), RandDraws: rs.draws[b],
		Snapshot: rs.snap, Tail: bytes.Join(rs.frames[:b], nil)}
}

// tail is the incremental frame of batch b.
func (rs *replicaStream) tail(b int) *codec.ReplAppend {
	return &codec.ReplAppend{Source: replSource, Epoch: 1, SnapCRC: codec.Checksum(rs.snap),
		Batches: uint64(b), RandDraws: rs.draws[b], Tail: rs.frames[b-1]}
}

// replicaFiles lists which of a replica's three files exist.
func replicaFiles(t *testing.T, dir, name string) (present []string) {
	t.Helper()
	for _, ext := range []string{extReplSnap, extReplJournal, extReplMeta} {
		if _, err := os.Stat(filepath.Join(dir, name+ext)); err == nil {
			present = append(present, name+ext)
		} else if !os.IsNotExist(err) {
			t.Fatal(err)
		}
	}
	return present
}

// TestReplicaRemovalRace races a replica's frames against a drop and a
// promotion whose persist step fails, round after round; run it under
// -race. Once a drop has returned, no file of the replica is left unless
// a full base shipped after it re-created them, and a tail-only frame is
// refused as out of sync. A failed promotion keeps the files and the
// position, and the tail keeps extending.
func TestReplicaRemovalRace(t *testing.T) {
	const name, batches = "raced", 6
	rs := newReplicaStream(t, batches)
	dir := t.TempDir()
	st := openStore(t, dir, nil)
	t.Cleanup(st.Close)
	errPersist := errors.New("injected: promoted topic not persisted")
	failingPersist := func(tp *triclust.Topic, meta ReplicaMeta) error {
		if b, d := tp.StreamPos(); b > batches || d != rs.draws[b] || meta.Epoch != 1 || meta.Source != replSource {
			t.Errorf("promotion loaded (batches=%d, draws=%d) at %+v, off the shipped stream", b, d, meta)
		}
		return errPersist
	}

	for round := 0; round < 40; round++ {
		reship := round%2 == 1
		if _, _, err := st.ApplyReplica(name, rs.base(0)); err != nil {
			t.Fatalf("round %d: base install: %v", round, err)
		}
		var dropped, reshipping atomic.Bool
		var wg sync.WaitGroup
		run := func(fn func()) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				fn()
			}()
		}
		run(func() { // the primary's batch stream
			for b := 1; b <= batches; b++ {
				after := !reship && dropped.Load()
				_, _, err := st.ApplyReplica(name, rs.tail(b))
				if err != nil && !errors.Is(err, ErrReplicaOutOfSync) {
					t.Errorf("round %d: tail %d: %v", round, b, err)
				}
				if after && err == nil {
					t.Errorf("round %d: tail %d accepted after the drop returned", round, b)
				}
			}
		})
		run(func() { // the primary's DELETE
			st.DropReplica(name, 1)
			left := replicaFiles(t, dir, name)
			dropped.Store(true)
			if len(left) > 0 && !reshipping.Load() {
				t.Errorf("round %d: %v left after the drop returned, with no base shipped since", round, left)
			}
		})
		run(func() { // a promotion check on the follower
			// Failing, or too late: the drop went first.
			if err := st.PromoteReplica(name, failingPersist); !errors.Is(err, errPersist) && !strings.Contains(fmt.Sprint(err), "is held here") {
				t.Errorf("round %d: promotion: %v", round, err)
			}
		})
		if reship {
			run(func() { // a resync re-ships the base
				reshipping.Store(true)
				if _, _, err := st.ApplyReplica(name, rs.base(0)); err != nil {
					t.Errorf("round %d: re-shipped base: %v", round, err)
				}
			})
		}
		wg.Wait()

		// Whatever the interleaving, the registry and the disk agree.
		held, left := st.held(name) != nil, replicaFiles(t, dir, name)
		switch {
		case !reship && (held || len(left) > 0):
			t.Fatalf("round %d: held=%v, files %v after a drop with no base shipped since", round, held, left)
		case held != (len(left) == 3) || (!held && len(left) > 0):
			t.Fatalf("round %d: held=%v with files %v", round, held, left)
		case held:
			if err := st.PromoteReplica(name, failingPersist); !errors.Is(err, errPersist) {
				t.Fatalf("round %d: the re-shipped replica does not load: %v", round, err)
			}
			st.DropReplica(name, 1)
		}
		if _, _, err := st.ApplyReplica(name, rs.tail(1)); !errors.Is(err, ErrReplicaOutOfSync) {
			t.Fatalf("round %d: tail-only frame after the drop: %v, want out of sync", round, err)
		}
	}

	// A failed promotion keeps the files and the position, and the tail
	// still extends; a durable one drops both.
	if b, d, err := st.ApplyReplica(name, rs.base(3)); err != nil || b != 3 || d != rs.draws[3] {
		t.Fatalf("base to batch 3: (%d, %d) %v", b, d, err)
	}
	if err := st.PromoteReplica(name, failingPersist); !errors.Is(err, errPersist) {
		t.Fatalf("failing promotion: %v", err)
	}
	if left := replicaFiles(t, dir, name); len(left) != 3 {
		t.Fatalf("a failed promotion left %v", left)
	}
	if rep := st.held(name); rep == nil || rep.batches != 3 || rep.draws != rs.draws[3] {
		t.Fatalf("a failed promotion moved the replica to %+v", rep)
	}
	if b, _, err := st.ApplyReplica(name, rs.tail(4)); err != nil || b != 4 {
		t.Fatalf("tail after a failed promotion: batch %d, %v", b, err)
	}
	var promoted int
	if err := st.PromoteReplica(name, func(tp *triclust.Topic, _ ReplicaMeta) error {
		promoted = tp.Batches()
		return nil
	}); err != nil || promoted != 4 {
		t.Fatalf("promotion at batch %d: %v", promoted, err)
	}
	if held, left := st.held(name) != nil, replicaFiles(t, dir, name); held || len(left) > 0 {
		t.Fatalf("after a durable promotion: held=%v, files %v", held, left)
	}
}

// TestFailedReinstall: a re-shipped base whose install fails after the
// base's rename leaves files no replica held matches, so the name is held
// no more and a tail-only frame asks for a full base: acking it would
// extend a replica whose promotion can only fail. One failing before the
// rename keeps the replica, which takes its tail and promotes.
func TestFailedReinstall(t *testing.T) {
	rs := newReplicaStream(t, 3)
	tp, err := triclust.NewTopic([]triclust.User{{Name: "c", Label: triclust.NoLabel}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tp.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	other := &codec.ReplAppend{Source: replSource, Epoch: 1, SnapCRC: codec.Checksum(buf.Bytes()), Snapshot: buf.Bytes()}
	for _, tc := range []struct {
		site string
		held bool
	}{{"repl.snap.write", true}, {"journal.create.open", false}, {"repl.meta.write", false}} {
		t.Run(tc.site, func(t *testing.T) {
			injected := errors.New("injected")
			st := openStore(t, t.TempDir(), fault.NewScript(fault.Rule{Site: tc.site, Hit: 2, Err: injected}))
			t.Cleanup(st.Close)
			if _, _, err := st.ApplyReplica("r", rs.base(2)); err != nil {
				t.Fatal(err)
			}
			if _, _, err := st.ApplyReplica("r", other); !errors.Is(err, injected) {
				t.Fatalf("re-install: %v, want the injected failure", err)
			}
			_, held := st.Replicas()["r"]
			b, _, err := st.ApplyReplica("r", rs.tail(3))
			switch {
			case held != tc.held:
				t.Fatalf("held=%v after the failed re-install, want %v", held, tc.held)
			case !held && !errors.Is(err, ErrReplicaOutOfSync):
				t.Fatalf("tail after the failed re-install: %v, want out of sync", err)
			case held && (err != nil || b != 3):
				t.Fatalf("tail after the failed re-install: batch %d, %v", b, err)
			case held:
				if err := st.PromoteReplica("r", func(*triclust.Topic, ReplicaMeta) error { return nil }); err != nil {
					t.Fatalf("promotion of the kept replica: %v", err)
				}
			}
		})
	}
}
