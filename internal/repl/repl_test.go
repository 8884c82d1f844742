package repl

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"

	"triclust/internal/cluster"
	"triclust/internal/codec"
)

// downSet is a Liveness whose down peers are its true keys.
type downSet map[string]bool

func (d downSet) Down(peer string) bool { return d[peer] }

func (d downSet) FirstLive(peers []string) (string, bool) {
	for _, p := range peers {
		if !d[p] {
			return p, true
		}
	}
	return "", false
}

// sent is one frame a fakeTransport carried.
type sent struct {
	peer     string
	full     bool
	tail     []byte
	snapCRC  uint32
	attempts int
}

// fakeTransport records every frame and answers each with answer (nil:
// accepted at the frame's batch count).
type fakeTransport struct {
	sent   []sent
	answer func(peer string, fr *codec.ReplAppend) error
}

func (f *fakeTransport) Append(_ context.Context, peer, _ string, fr *codec.ReplAppend, attempts int) (int, error) {
	f.sent = append(f.sent, sent{peer: peer, full: fr.Snapshot != nil, tail: fr.Tail, snapCRC: fr.SnapCRC, attempts: attempts})
	if f.answer != nil {
		if err := f.answer(peer, fr); err != nil {
			return 0, err
		}
	}
	return int(fr.Batches), nil
}

// fixture is one topic served by self on a three-shard ring at the given
// factor, with its followers in ring order.
type fixture struct {
	ring      *cluster.Ring
	self      string
	followers []string
	rec       Followers
	builds    int
}

func newFixture(t *testing.T, factor int) *fixture {
	t.Helper()
	ring, err := cluster.New([]string{"http://a", "http://b", "http://c"}, 16)
	if err != nil {
		t.Fatal(err)
	}
	fx := &fixture{ring: ring, self: ring.Owner("t")}
	fx.rec = NewFollowers(ring, "t", fx.self, factor)
	fx.followers = fx.rec.Peers()
	if len(fx.followers) != factor-1 {
		t.Fatalf("%d followers at factor %d", len(fx.followers), factor)
	}
	return fx
}

// ship runs one round at position (epoch 3, batches) over tr with live.
func (fx *fixture) ship(t *testing.T, tr Transport, live cluster.Liveness, batches int, frame []byte, async bool) *Fence {
	t.Helper()
	fence, err := Ship(context.Background(), &fx.rec, Round{
		Topic: "t", Source: fx.self, Epoch: 3, Batches: batches, RandDraws: 7,
		Frame: frame, Async: async, Live: live, Logf: t.Logf,
		Snapshot: func(w io.Writer) error { fx.builds++; _, err := fmt.Fprintf(w, "snap@%d", batches); return err },
	}, tr)
	if err != nil {
		t.Fatal(err)
	}
	return fence
}

// lag returns the follower's recorded lag behind batches (ok: it ever acked).
func (fx *fixture) lag(peer string, batches int) (Lag, bool) {
	for _, l := range fx.rec.AppendLag(nil, "t", batches) {
		if l.Peer == peer {
			return l, true
		}
	}
	return Lag{}, false
}

func TestShipIncrementalFrameAccepted(t *testing.T) {
	fx := newFixture(t, 2)
	peer := fx.followers[0]
	if _, ok := fx.lag(peer, 0); ok || !fx.rec.NeedsResync(downSet{}) {
		t.Fatal("a new record lists a follower that never acked, or needs no resync")
	}
	tr := &fakeTransport{}
	fx.ship(t, tr, downSet{}, 1, []byte("frame1"), false)
	if len(tr.sent) != 1 || !tr.sent[0].full || tr.sent[0].attempts != requestAttempts {
		t.Fatalf("first contact sent %+v, want one full base at the request budget", tr.sent)
	}
	base := tr.sent[0].snapCRC
	if base != codec.Checksum([]byte("snap@1")) {
		t.Fatalf("base CRC %08x is not the snapshot's", base)
	}
	fx.ship(t, tr, downSet{}, 2, []byte("frame2"), false)
	got := tr.sent[1]
	if got.full || !bytes.Equal(got.tail, []byte("frame2")) || got.snapCRC != base {
		t.Fatalf("second ship sent %+v, want the tail naming the follower's base %08x", got, base)
	}
	if l, ok := fx.lag(peer, 2); !ok || !l.Synced || l.Behind != 0 || fx.rec.NeedsResync(downSet{}) {
		t.Fatalf("after two acks: lag %+v (listed %v), resync %v", l, ok, fx.rec.NeedsResync(downSet{}))
	}
	if l, _ := fx.lag(peer, 5); l.Behind != 3 {
		t.Fatalf("three batches past the ack: behind %d", l.Behind)
	}
}

func TestShipOutOfSyncRetriesOnceInFull(t *testing.T) {
	fx := newFixture(t, 2)
	peer := fx.followers[0]
	tr := &fakeTransport{}
	fx.ship(t, tr, downSet{}, 1, []byte("frame1"), false)

	// The follower refuses the tail: exactly one full base follows.
	tr.sent = nil
	tr.answer = func(_ string, fr *codec.ReplAppend) error {
		if fr.Snapshot == nil {
			return &Refusal{Err: errors.New("out of sync")}
		}
		return nil
	}
	fx.ship(t, tr, downSet{}, 2, []byte("frame2"), false)
	if len(tr.sent) != 2 || tr.sent[0].full || !tr.sent[1].full {
		t.Fatalf("sent %+v, want the tail, then one full base", tr.sent)
	}
	if l, _ := fx.lag(peer, 2); !l.Synced || l.Behind != 0 {
		t.Fatalf("after the full retry: %+v", l)
	}

	// It refuses the full base too: no third try, and it is out of sync.
	tr.sent = nil
	tr.answer = func(string, *codec.ReplAppend) error { return &Refusal{Err: errors.New("out of sync")} }
	fx.ship(t, tr, downSet{}, 3, []byte("frame3"), false)
	if len(tr.sent) != 2 {
		t.Fatalf("sent %d frames to a follower refusing everything, want 2", len(tr.sent))
	}
	if l, _ := fx.lag(peer, 3); l.Synced {
		t.Fatal("a follower that refused the full base is still synced")
	}
}

func TestShipEpochMismatchFences(t *testing.T) {
	for _, c := range []struct {
		name      string
		refusal   Refusal
		wantEpoch uint64
		wantOwner string // "": the refusing follower
	}{
		{"named", Refusal{Fenced: true, Epoch: 9, Owner: "http://elsewhere"}, 9, "http://elsewhere"},
		{"unnamed", Refusal{Fenced: true}, 4, ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			fx := newFixture(t, 3)
			first := fx.followers[0]
			refusal := c.refusal
			refusal.Err = errors.New("epoch mismatch")
			tr := &fakeTransport{answer: func(string, *codec.ReplAppend) error { return &refusal }}
			fence := fx.ship(t, tr, downSet{}, 1, nil, false)
			owner := c.wantOwner
			if owner == "" {
				owner = first
			}
			if fence == nil || fence.Peer != first || fence.Epoch != c.wantEpoch || fence.Owner != owner {
				t.Fatalf("fence %+v, want %s's at epoch %d owned by %s", fence, first, c.wantEpoch, owner)
			}
			if ts := fence.Tombstone(); ts != (cluster.Tombstone{Epoch: c.wantEpoch - 1, Target: owner}) {
				t.Fatalf("tombstone %+v, want epoch %d → %s", ts, c.wantEpoch-1, owner)
			}
			if len(tr.sent) != 1 {
				t.Fatalf("the ship went on to %d more followers after the fence", len(tr.sent)-1)
			}
		})
	}
}

func TestShipTransportErrorMarksUnsynced(t *testing.T) {
	fx := newFixture(t, 2)
	peer := fx.followers[0]
	tr := &fakeTransport{}
	fx.ship(t, tr, downSet{}, 1, nil, false)
	tr.answer = func(string, *codec.ReplAppend) error { return errors.New("connection reset") }
	fx.ship(t, tr, downSet{}, 2, []byte("frame2"), false)
	if l, ok := fx.lag(peer, 2); !ok || l.Synced || l.Behind != 1 {
		t.Fatalf("after a transport error: %+v (listed %v), want unsynced 1 behind", l, ok)
	}
	if !fx.rec.NeedsResync(downSet{}) || fx.rec.NeedsResync(downSet{peer: true}) {
		t.Fatal("NeedsResync must name an unsynced follower unless it is down")
	}
}

func TestShipSkipsDownPeer(t *testing.T) {
	fx := newFixture(t, 3)
	down := fx.followers[0]
	tr := &fakeTransport{}
	fx.ship(t, tr, downSet{}, 1, nil, false)
	tr.sent = nil
	fx.ship(t, tr, downSet{down: true}, 2, []byte("frame2"), false)
	if len(tr.sent) != 1 || tr.sent[0].peer != fx.followers[1] {
		t.Fatalf("sent %+v, want one frame, to the live follower", tr.sent)
	}
	if l, _ := fx.lag(down, 2); l.Synced {
		t.Fatal("a follower skipped as down is still synced")
	}
}

func TestShipAsyncSkipsSyncedFollowers(t *testing.T) {
	fx := newFixture(t, 3)
	synced, behind := fx.followers[0], fx.followers[1]
	tr := &fakeTransport{answer: func(peer string, _ *codec.ReplAppend) error {
		if peer == behind {
			return errors.New("unreachable")
		}
		return nil
	}}
	fx.ship(t, tr, downSet{}, 1, nil, false)
	tr.sent, tr.answer = nil, nil
	fx.ship(t, tr, downSet{}, 1, nil, true)
	if len(tr.sent) != 1 || tr.sent[0].peer != behind || !tr.sent[0].full || tr.sent[0].attempts != resyncAttempts {
		t.Fatalf("resync sent %+v, want one full base to %s at the resync budget (not to %s)", tr.sent, behind, synced)
	}
}

func TestShipBuildsTheSnapshotOnce(t *testing.T) {
	fx := newFixture(t, 3)
	tr := &fakeTransport{}
	fx.ship(t, tr, downSet{}, 1, nil, false)
	if len(tr.sent) != 2 || !tr.sent[0].full || !tr.sent[1].full {
		t.Fatalf("sent %+v, want a full base to each follower", tr.sent)
	}
	if fx.builds != 1 {
		t.Fatalf("the snapshot was built %d times in one ship, want 1", fx.builds)
	}
}

// TestRecordReadsBesideShips: healthz and the resync read a record
// while a ship under the topic's lock writes it; run under -race.
func TestRecordReadsBesideShips(t *testing.T) {
	fx := newFixture(t, 3)
	fail := fx.followers[1]
	tr := &fakeTransport{answer: func(peer string, fr *codec.ReplAppend) error {
		if peer == fail && fr.Batches%2 == 0 {
			return errors.New("flaky")
		}
		return nil
	}}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, l := range fx.rec.AppendLag(nil, "t", 100) {
				if l.Behind < 0 || l.Behind > 100 {
					t.Errorf("lag %+v out of range", l)
				}
			}
			fx.rec.NeedsResync(downSet{})
		}
	}()
	for b := 1; b <= 100; b++ {
		fx.ship(t, tr, downSet{}, b, []byte("frame"), false)
	}
	close(stop)
	wg.Wait()
	if l, ok := fx.lag(fail, 100); !ok || l.Synced {
		t.Fatalf("the flaky follower after an even batch: %+v (listed %v), want unsynced", l, ok)
	}
}
