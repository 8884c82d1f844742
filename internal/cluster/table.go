package cluster

import (
	"fmt"
	"maps"
	"slices"
	"sync"
)

// Tombstone records that a topic was handed off: the ownership epoch it
// left at (the epoch inside the snapshot the target installed) and the peer
// it went to. A topic is created at epoch 0 and every hand-off or promotion
// raises its epoch by one, so a stale copy is one at a lower epoch.
type Tombstone struct {
	Epoch  uint64 `json:"epoch"`
	Target string `json:"target"`
}

// Membership is one shard's place in a cluster: its own base URL and the
// ring every shard builds from the same peer list.
type Membership struct {
	Self string
	Ring *Ring
}

// Liveness is the failure detector's verdict on peers (Detector).
type Liveness interface {
	Down(peer string) bool
	FirstLive(peers []string) (string, bool)
}

// Candidates returns, in ring order, every replica-set member of name but
// source; a topic's followers are the first factor-1 of them besides self.
func Candidates(ring *Ring, name, source string) []string {
	return slices.DeleteFunc(ring.ReplicaSet(name, len(ring.Peers())), func(p string) bool { return p == source })
}

// Elect returns the shard that takes name over from source: nobody while
// source is live, else its first live candidate.
func Elect(ring *Ring, name, source string, live Liveness) (string, bool) {
	if !live.Down(source) {
		return "", false
	}
	return live.FirstLive(Candidates(ring, name, source))
}

// Disk is where a Table writes its tombstones through (internal/store's
// Store; a nil one keeps them in memory).
type Disk interface {
	SetTombstone(name string, ts Tombstone) error
	ClearTombstone(name string) error
}

// Table is one shard's placement: who it is, the ring, and the tombstones
// of the topics it handed off, written through to its Disk — memory first,
// so a fence holds from the moment it is set. The registry of served topics
// is the caller's: it reads the registry and calls Route under its own lock,
// and Register calls into it holding none of the table's.
type Table struct {
	Membership          // the zero value: one process, no ring
	live       Liveness // nil: no failure detector
	disk       Disk
	logf       func(format string, args ...any)

	mu    sync.RWMutex
	tombs map[string]Tombstone
	// parked names the tombstones of hand-offs that have no verdict yet:
	// the install may or may not have landed, and this shard still holds
	// the state on disk.
	parked map[string]bool
}

// NewTable is the placement of m holding tombs, the tombstones on disk.
func NewTable(m Membership, live Liveness, disk Disk, tombs map[string]Tombstone, logf func(format string, args ...any)) *Table {
	return &Table{Membership: m, live: live, disk: disk, logf: logf, tombs: tombs, parked: make(map[string]bool)}
}

// Route is where a name lives as this shard knows it: Here, this shard
// answers for it (serves it, owns it, or runs alone), else Owner does; Moved,
// Owner is the target of a tombstone left at Epoch. Parked, that hand-off
// has no verdict yet: this shard neither serves the name nor redirects it,
// for Owner may not hold it. A single process keeps its tombstones for
// Register only.
type Route struct {
	Here, Moved, Parked bool
	Owner               string
	Epoch               uint64
}

// Route answers where name lives, in order: served here (a move overrides
// the ring), handed off (the tombstone), the ring owner, or — that owner
// declared down — its first live candidate, the shard that promoted or is
// about to promote the topic's replica. Every chain of routes ends: a
// tombstone names a shard that held the topic past its epoch, and a hand-off
// not yet confirmed is Parked, not followed.
func (t *Table) Route(name string, served bool) Route {
	if served || t.Ring == nil {
		return Route{Here: true, Owner: t.Self}
	}
	t.mu.RLock()
	ts, moved := t.tombs[name]
	parked := t.parked[name]
	t.mu.RUnlock()
	if moved {
		return Route{Here: ts.Target == t.Self, Moved: true, Parked: parked, Owner: ts.Target, Epoch: ts.Epoch}
	}
	owner := t.Ring.Owner(name)
	if t.live != nil && owner != t.Self {
		if alt, ok := Elect(t.Ring, name, owner, t.live); ok {
			owner = alt
		}
	}
	return Route{Here: owner == t.Self, Owner: owner}
}

// Tombstone returns name's tombstone, if it has one.
func (t *Table) Tombstone(name string) (Tombstone, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	ts, ok := t.tombs[name]
	return ts, ok
}

// Moved counts the tombstones.
func (t *Table) Moved() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.tombs)
}

// Park marks name's hand-off as without a verdict: its tombstone stands and
// this shard still holds its state (a restart found both on disk).
func (t *Table) Park(name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, moved := t.tombs[name]; moved {
		t.parked[name] = true
	}
}

// Parked returns the names whose hand-off has no verdict yet, sorted.
func (t *Table) Parked() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return slices.Sorted(maps.Keys(t.parked))
}

// settle records name's hand-off verdict: the tombstone's target holds it.
func (t *Table) settle(name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.parked, name)
}

// Fence records ts for name — in memory, fencing at once, then on disk.
func (t *Table) Fence(name string, ts Tombstone) error {
	t.mu.Lock()
	t.tombs[name] = ts
	t.mu.Unlock()
	return t.disk.SetTombstone(name, ts)
}

// Unfence drops name's tombstone, in memory, then on disk.
func (t *Table) Unfence(name string) {
	t.mu.Lock()
	delete(t.tombs, name)
	delete(t.parked, name)
	t.mu.Unlock()
	if err := t.disk.ClearTombstone(name); err != nil {
		t.logf("remove tombstone %q: %v", name, err)
	}
}

// Register admits name arriving at epoch (0: a fresh create): a tombstone
// at E refuses every epoch ≤ E, for a stale copy would fork the topic's
// history. Else insert, the caller's registry, reports whether it took the
// name; if it did, the tombstone goes: the topic lives here again. A route
// meanwhile finds the name served, which outranks the tombstone.
func (t *Table) Register(name string, epoch uint64, insert func() bool) (bool, error) {
	ts, moved := t.Tombstone(name)
	if moved && epoch <= ts.Epoch {
		return false, fmt.Errorf("topic %q was handed off to %s at epoch %d; refusing state at epoch %d", name, ts.Target, ts.Epoch, epoch)
	}
	ok := insert()
	if ok && moved {
		t.Unfence(name)
	}
	return ok, nil
}

// Verdict is the fence's answer to a replica frame.
type Verdict int

const (
	Accept    Verdict = iota // store the frame as a replica
	Outranked                // refuse it: the Tombstone names who holds the topic, at which epoch
	Demote                   // the served copy is stale: fence it under the Tombstone, then accept
)

// Frame fences a replica frame of name that source shipped at epoch; served
// says this shard serves name, at local. A served copy outranks a frame of a
// lower epoch and is fenced by one of a higher epoch. Equal epochs are the
// hand-off window: this shard is handing the topic to source, whose frames
// are stored without touching the copy about to be dropped. A tombstone
// refuses frames below its epoch only: the new owner ships at that epoch.
func (t *Table) Frame(name string, served bool, local, epoch uint64, source string) (Verdict, Tombstone) {
	ts, moved := t.Tombstone(name)
	switch {
	case served && local > epoch:
		return Outranked, Tombstone{Epoch: local, Target: t.Self}
	case served && local < epoch:
		return Demote, Tombstone{Epoch: epoch - 1, Target: source}
	case !served && moved && ts.Epoch > epoch:
		return Outranked, ts
	}
	return Accept, Tombstone{}
}
