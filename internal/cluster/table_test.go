package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
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

// memDisk is a Disk in memory that logs every write; fail makes
// SetTombstone fail.
type memDisk struct {
	tombs map[string]Tombstone
	ops   []string
	fail  bool
}

func newMemDisk() *memDisk { return &memDisk{tombs: make(map[string]Tombstone)} }

func (d *memDisk) SetTombstone(name string, ts Tombstone) error {
	d.ops = append(d.ops, fmt.Sprintf("set %s %d %s", name, ts.Epoch, ts.Target))
	if d.fail {
		return errors.New("injected: disk full")
	}
	d.tombs[name] = ts
	return nil
}

func (d *memDisk) ClearTombstone(name string) error {
	d.ops = append(d.ops, "clear "+name)
	delete(d.tombs, name)
	return nil
}

var peersABC = []string{"http://a", "http://b", "http://c"}

// newTestTable is shard self's table over peersABC, with the tombstones on
// disk loaded.
func newTestTable(t *testing.T, self string, live Liveness, disk *memDisk) *Table {
	t.Helper()
	tombs := make(map[string]Tombstone)
	for name, ts := range disk.tombs {
		tombs[name] = ts
	}
	return NewTable(Membership{Self: self, Ring: testRing(t, peersABC...)}, live, disk, tombs, t.Logf)
}

// ownedBy returns a topic name the ring assigns to peer.
func ownedBy(t *testing.T, r *Ring, peer string) string {
	t.Helper()
	for i := 0; i < 1000; i++ {
		if n := fmt.Sprintf("t%03d", i); r.Owner(n) == peer {
			return n
		}
	}
	t.Fatalf("no name owned by %s", peer)
	return ""
}

// TestRouteOrder: served here, then the tombstone, then the ring owner,
// then — that owner down — its first live candidate.
func TestRouteOrder(t *testing.T) {
	const self = "http://a"
	live := downSet{}
	tb := newTestTable(t, self, live, newMemDisk())
	mine, theirs := ownedBy(t, tb.Ring, self), ownedBy(t, tb.Ring, "http://b")
	if r := tb.Route(theirs, true); !r.Here || r.Owner != self || r.Moved {
		t.Fatalf("served name routes %+v, want here", r)
	}
	if r := tb.Route(mine, false); !r.Here || r.Owner != self {
		t.Fatalf("owned name routes %+v, want here", r)
	}
	if r := tb.Route(theirs, false); r.Here || r.Owner != "http://b" || r.Moved {
		t.Fatalf("name owned elsewhere routes %+v, want http://b", r)
	}
	live["http://b"] = true
	want := Candidates(tb.Ring, theirs, "http://b")[0]
	if r := tb.Route(theirs, false); r.Owner != want || r.Here != (want == self) {
		t.Fatalf("name of a down owner routes %+v, want its first live candidate %s", r, want)
	}
	if err := tb.Fence(mine, Tombstone{Epoch: 2, Target: "http://c"}); err != nil {
		t.Fatal(err)
	}
	if r := tb.Route(mine, false); r.Here || r.Owner != "http://c" || !r.Moved || r.Epoch != 2 {
		t.Fatalf("handed-off name routes %+v, want the tombstone to http://c at epoch 2", r)
	}
	if r := tb.Route(mine, true); !r.Here || r.Moved {
		t.Fatalf("a name served while its hand-off is in flight routes %+v, want here", r)
	}
	alone := NewTable(Membership{}, nil, newMemDisk(), map[string]Tombstone{mine: {Epoch: 1, Target: "http://c"}}, t.Logf)
	if r := alone.Route(mine, false); !r.Here {
		t.Fatalf("a single process routes %+v, want every name here", r)
	}
}

// TestRegisterFence: a tombstone at E refuses state at E−1 and E, admits
// E+1 and then goes, in memory and on disk; a name the registry does not
// take keeps it.
func TestRegisterFence(t *testing.T) {
	const E = 2
	disk := newMemDisk()
	disk.tombs["x"] = Tombstone{Epoch: E, Target: "http://b"}
	tb := newTestTable(t, "http://a", nil, disk)
	for _, epoch := range []uint64{E - 1, E} {
		ok, err := tb.Register("x", epoch, func() bool { t.Fatalf("registered at epoch %d", epoch); return true })
		if ok || err == nil {
			t.Fatalf("register at epoch %d: %v %v, want refused as stale", epoch, ok, err)
		}
	}
	if ok, err := tb.Register("x", E+1, func() bool { return false }); ok || err != nil {
		t.Fatalf("register into a taken name: %v %v", ok, err)
	}
	if _, moved := tb.Tombstone("x"); !moved || len(disk.tombs) != 1 {
		t.Fatal("a registration that did not take the name cleared the tombstone")
	}
	if ok, err := tb.Register("x", E+1, func() bool { return true }); !ok || err != nil {
		t.Fatalf("register at epoch %d: %v %v, want admitted", E+1, ok, err)
	}
	if _, moved := tb.Tombstone("x"); moved || len(disk.tombs) != 0 || tb.Moved() != 0 {
		t.Fatalf("registering at a valid epoch kept the tombstone (disk %v)", disk.tombs)
	}
}

// TestFrameFence: a replica frame against a tombstone at E and against a
// copy served at E, at epochs E−1, E and E+1.
func TestFrameFence(t *testing.T) {
	const E, self, src = 2, "http://a", "http://b"
	disk := newMemDisk()
	disk.tombs["x"] = Tombstone{Epoch: E, Target: "http://c"}
	tb := newTestTable(t, self, nil, disk)
	for _, c := range []struct {
		served bool
		epoch  uint64
		want   Verdict
		ts     Tombstone
	}{
		{false, E - 1, Outranked, Tombstone{E, "http://c"}},
		{false, E, Accept, Tombstone{}},
		{false, E + 1, Accept, Tombstone{}},
		{true, E - 1, Outranked, Tombstone{E, self}},
		{true, E, Accept, Tombstone{}},
		{true, E + 1, Demote, Tombstone{E, src}},
	} {
		if v, ts := tb.Frame("x", c.served, E, c.epoch, src); v != c.want || ts != c.ts {
			t.Errorf("frame at epoch %d (served %v): %v %+v, want %v %+v", c.epoch, c.served, v, ts, c.want, c.ts)
		}
	}
	if v, _ := tb.Frame("fresh", false, 0, 0, src); v != Accept {
		t.Errorf("a frame of a name unknown here: %v, want accepted", v)
	}
}

func TestElect(t *testing.T) {
	ring := testRing(t, peersABC...)
	source := "http://a"
	cands := Candidates(ring, "t", source)
	if len(cands) != 2 || cands[0] == source || cands[1] == source {
		t.Fatalf("candidates %v of a three-shard ring without %s", cands, source)
	}
	if w, ok := Elect(ring, "t", source, downSet{}); ok {
		t.Fatalf("%s elected while the source is alive", w)
	}
	if w, ok := Elect(ring, "t", source, downSet{source: true}); !ok || w != cands[0] {
		t.Fatalf("elected %q (%v), want the first candidate %s", w, ok, cands[0])
	}
	if w, ok := Elect(ring, "t", source, downSet{source: true, cands[0]: true}); !ok || w != cands[1] {
		t.Fatalf("elected %q (%v) past a down first candidate, want %s", w, ok, cands[1])
	}
	if w, ok := Elect(ring, "t", source, downSet{source: true, cands[0]: true, cands[1]: true}); ok {
		t.Fatalf("%s elected with every candidate down", w)
	}
}

// TestRouteChainsEnd: over placements the table's own verbs reach, from
// every shard, following Route ends within as many hops as there are
// shards — at a shard that answers for the name (Here), one that holds it
// parked, or one declared down, which a client cannot reach and retries.
// Each trial is a ring of 2–5 shards and one topic created at its ring
// owner, then moved by Handoff with every outcome — installed, refused by a
// fence or otherwise, ambiguous with the install landed or not — and
// resumed toward its recorded target, a refused resume taken back by its
// source as the daemon does, under a random Liveness. (An operator's
// re-point to another target is TestHandoffResumeAsksRecordedTarget's.) Then every target answers, and one resume of
// each parked hand-off must reach a verdict: no shard stays parked, one
// serves the topic, and the chains end as before. Without Parked a parked source and a ring owner that
// does not hold the topic route to each other; without the fence's verdict a
// resume whose target passed the topic on stays parked.
func TestRouteChainsEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := range 2000 {
		n, name, live := 2+rng.Intn(4), fmt.Sprintf("x%d", trial), downSet{}
		var peers []string
		for i := range n {
			peers = append(peers, fmt.Sprintf("http://s%d", i))
		}
		ring := testRing(t, peers...)
		tr := &routeTransport{served: map[string]uint64{}, tables: map[string]*Table{}}
		for _, p := range peers {
			tr.tables[p] = NewTable(Membership{Self: p, Ring: ring}, live, newMemDisk(), map[string]Tombstone{}, t.Logf)
		}
		tr.register(ring.Owner(name), name, 0)
		var log []string
		handoff := func(from, to string) {
			epoch, holds := tr.served[from]
			ts, parked := tr.tables[from].Tombstone(name)
			switch parked = parked && slices.Contains(tr.tables[from].Parked(), name); {
			case to == from && !parked || !holds && !parked:
				return
			case parked:
				to, epoch = ts.Target, ts.Epoch
			default:
				epoch++
			}
			tr.epoch, tr.land = epoch, tr.healthy || rng.Intn(2) == 0
			out, _, _ := Handoff(context.Background(), tr.tables[from], tr,
				Retry{Attempts: 1, Sleep: func(context.Context, time.Duration) bool { return true }}, Transfer{Topic: name, Target: to, Epoch: epoch, Resumable: true})
			if _, fenced := tr.tables[from].Tombstone(name); out == Installed || out == Ambiguous {
				delete(tr.served, from)
			} else if parked && !fenced {
				tr.register(from, name, epoch-1)
			}
			log = append(log, fmt.Sprintf("%s→%s@%d land=%v lost=%v reachable=%v: outcome %d", from, to, epoch, tr.land, tr.lost, tr.reachable, out))
		}
		chainsEnd := func() {
			for _, entry := range peers {
				for at, chain := entry, []string{entry}; !live.Down(at); chain = append(chain, at) {
					_, holds := tr.served[at]
					if rt := tr.tables[at].Route(name, holds); rt.Here || rt.Parked {
						break
					} else if at = rt.Owner; len(chain) == n {
						t.Fatalf("trial %d: the route from %s does not end: %v (down %v; moves %v)", trial, entry, chain, live, log)
					}
				}
			}
		}
		for range 6 {
			tr.lost, tr.reachable = rng.Intn(2) == 0, rng.Intn(2) == 0
			handoff(peers[rng.Intn(n)], peers[rng.Intn(n)])
		}
		for _, p := range peers {
			live[p] = rng.Intn(4) == 0
		}
		chainsEnd()
		tr.lost, tr.reachable = false, true
		for _, p := range peers {
			if ts, parked := tr.tables[p].Tombstone(name); parked {
				tr.healthy = true
				handoff(p, ts.Target)
				tr.healthy = false
			}
			if parked := tr.tables[p].Parked(); len(parked) > 0 {
				t.Fatalf("trial %d: %s stays parked after a resume its target answered (moves %v)", trial, p, log)
			}
		}
		if len(tr.served) != 1 {
			t.Fatalf("trial %d: after every resume the topic is served at %v, want one shard (moves %v)", trial, tr.served, log)
		}
		chainsEnd()
	}
}

// routeTransport is one topic's cluster: the epoch each shard serves it at
// and each shard's table. An install lands or fails on the target (a 5xx),
// its answer is lost or not, and placement queries reach or not; one that
// lands is refused, as the daemon refuses it, by the target's fence or by
// the name taken there.
type routeTransport struct {
	served                         map[string]uint64
	tables                         map[string]*Table
	epoch                          uint64
	land, lost, reachable, healthy bool
}

func (r *routeTransport) register(peer, name string, epoch uint64) (bool, error) {
	return r.tables[peer].Register(name, epoch, func() bool {
		_, taken := r.served[peer]
		if !taken {
			r.served[peer] = epoch
		}
		return !taken
	})
}

func (r *routeTransport) Install(_ context.Context, peer, name string, _ []byte) error {
	if !r.land {
		return &Refusal{Transient: true, Err: errors.New("500")}
	}
	switch ok, err := r.register(peer, name, r.epoch); {
	case err != nil:
		return &Refusal{Fenced: true, Err: err}
	case !ok:
		return &Refusal{Exists: true, Err: errors.New("topic_exists")}
	case r.lost:
		return errLost
	}
	return nil
}

func (r *routeTransport) Holds(_ context.Context, peer, name string, epoch uint64) (bool, bool) {
	at, ok := r.served[peer]
	return r.reachable && ok && at >= epoch, r.reachable
}
