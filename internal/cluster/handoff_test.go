package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// holds is one scripted answer to a placement query.
type holds struct{ has, reachable bool }

// fakeTransport answers the n-th Install with installs[n] (past the end:
// nil) and the n-th Holds with queries[n] (past the end: reachable, not
// held), logging every call.
type fakeTransport struct {
	installs []error
	queries  []holds
	calls    []string
}

func (f *fakeTransport) Install(_ context.Context, peer, name string, snapshot []byte) error {
	n := countPrefix(f.calls, "install")
	f.calls = append(f.calls, fmt.Sprintf("install %s %s %s", peer, name, snapshot))
	if n < len(f.installs) {
		return f.installs[n]
	}
	return nil
}

func (f *fakeTransport) Holds(_ context.Context, peer, name string, epoch uint64) (bool, bool) {
	n := countPrefix(f.calls, "holds")
	f.calls = append(f.calls, fmt.Sprintf("holds %s %s %d", peer, name, epoch))
	if n < len(f.queries) {
		return f.queries[n].has, f.queries[n].reachable
	}
	return false, true
}

func countPrefix(calls []string, prefix string) int {
	n := 0
	for _, c := range calls {
		if strings.HasPrefix(c, prefix) {
			n++
		}
	}
	return n
}

var errLost = errors.New("injected: the response was lost")

// handoffFixture is shard A handing topic x, at epoch 1, to B.
type handoffFixture struct {
	live Liveness
	disk *memDisk
	tb   *Table
	tr   *fakeTransport
	x    Transfer
}

func newHandoffFixture(t *testing.T, live Liveness, tr *fakeTransport) *handoffFixture {
	disk := newMemDisk()
	return &handoffFixture{live: live, disk: disk, tb: newTestTable(t, "http://a", live, disk), tr: tr,
		x: Transfer{Topic: "x", Target: "http://b", Epoch: 1, Snapshot: []byte("snap"), Resumable: true}}
}

// handoffResult is what one Handoff returned.
type handoffResult struct {
	Outcome Outcome
	Target  string
	Err     error
}

func (fx *handoffFixture) run() handoffResult {
	out, target, err := Handoff(context.Background(), fx.tb, fx.tr,
		Retry{Attempts: 4, Sleep: func(context.Context, time.Duration) bool { return true }, Live: fx.live}, fx.x)
	return handoffResult{out, target, err}
}

// fenced fails unless the table and its disk both hold want for x (zero:
// no tombstone at all).
func (fx *handoffFixture) fenced(t *testing.T, want Tombstone) {
	t.Helper()
	ts, moved := fx.tb.Tombstone("x")
	onDisk, stored := fx.disk.tombs["x"]
	if moved != (want != Tombstone{}) || ts != want || stored != moved || onDisk != ts {
		t.Fatalf("tombstone %+v (%v) in memory, %+v (%v) on disk; want %+v", ts, moved, onDisk, stored, want)
	}
}

func TestHandoffInstalled(t *testing.T) {
	fx := newHandoffFixture(t, nil, &fakeTransport{})
	if res := fx.run(); res.Outcome != Installed || res.Target != "http://b" {
		t.Fatalf("hand-off %+v, want installed on http://b", res)
	}
	fx.fenced(t, Tombstone{1, "http://b"})
	if len(fx.tr.calls) != 1 || fx.disk.ops[0] != "set x 1 http://b" {
		t.Fatalf("calls %v after disk %v, want the tombstone written, then one PUT", fx.tr.calls, fx.disk.ops)
	}
}

func TestHandoffRefusalUnfences(t *testing.T) {
	fx := newHandoffFixture(t, nil, &fakeTransport{installs: []error{&Refusal{Err: errors.New("409 epoch_mismatch")}}})
	if res := fx.run(); res.Outcome != Refused {
		t.Fatalf("hand-off %+v, want refused", res)
	}
	fx.fenced(t, Tombstone{})
	if len(fx.tr.calls) != 1 {
		t.Fatalf("calls %v: a refusal is final, nothing to ask", fx.tr.calls)
	}
}

func TestHandoffTopicExists(t *testing.T) {
	exists := &Refusal{Exists: true, Err: errors.New("409 topic_exists")}
	fx := newHandoffFixture(t, nil, &fakeTransport{installs: []error{exists}, queries: []holds{{true, true}}})
	if res := fx.run(); res.Outcome != Installed {
		t.Fatalf("topic_exists held at the hand-off epoch: %+v, want installed (an earlier PUT landed)", res)
	}
	fx.fenced(t, Tombstone{1, "http://b"})

	fx = newHandoffFixture(t, nil, &fakeTransport{installs: []error{exists}, queries: []holds{{false, true}}})
	if res := fx.run(); res.Outcome != Refused {
		t.Fatalf("topic_exists not held at the hand-off epoch: %+v, want refused", res)
	}
	fx.fenced(t, Tombstone{})
}

func TestHandoffAmbiguousKeepsFence(t *testing.T) {
	// No answer, or a 5xx, from a target that cannot then be asked.
	for _, err := range []error{errLost, &Refusal{Transient: true, Err: errLost}} {
		tr := &fakeTransport{installs: []error{err}, queries: []holds{{false, false}}}
		fx := newHandoffFixture(t, nil, tr)
		if res := fx.run(); res.Outcome != Ambiguous || !errors.Is(res.Err, errLost) {
			t.Fatalf("hand-off after %v: %+v, want ambiguous", err, res)
		}
		fx.fenced(t, Tombstone{1, "http://b"})
		if len(tr.calls) != 2 {
			t.Fatalf("calls %v, want one PUT and one query", tr.calls)
		}
	}

	// With nothing on disk to resume from, availability wins: un-fenced.
	fx := newHandoffFixture(t, nil, &fakeTransport{installs: []error{errLost}, queries: []holds{{false, false}}})
	fx.x.Resumable = false
	if res := fx.run(); res.Outcome != Ambiguous {
		t.Fatalf("hand-off %+v, want ambiguous", res)
	}
	fx.fenced(t, Tombstone{})
}

func TestHandoffRetriesReachableTarget(t *testing.T) {
	tr := &fakeTransport{installs: []error{errLost, errLost, errLost}}
	fx := newHandoffFixture(t, nil, tr)
	if res := fx.run(); res.Outcome != Installed || countPrefix(tr.calls, "install") != 4 {
		t.Fatalf("hand-off %+v after %v, want installed by the fourth PUT", res, tr.calls)
	}

	tr = &fakeTransport{installs: []error{errLost, errLost, errLost, errLost, nil}}
	fx = newHandoffFixture(t, nil, tr)
	if res := fx.run(); res.Outcome != Ambiguous || countPrefix(tr.calls, "install") != 4 {
		t.Fatalf("hand-off %+v after %v, want ambiguous after 4 PUTs", res, tr.calls)
	}
	fx.fenced(t, Tombstone{1, "http://b"})

	// A target that answers 5xx every time, and holds nothing when asked,
	// installed nothing.
	failed := &Refusal{Transient: true, Err: errors.New("500 storage_error")}
	tr = &fakeTransport{installs: []error{failed, failed, failed, failed}}
	fx = newHandoffFixture(t, nil, tr)
	if res := fx.run(); res.Outcome != Refused || countPrefix(tr.calls, "install") != 4 {
		t.Fatalf("hand-off %+v after %v, want refused after 4 answered PUTs", res, tr.calls)
	}
	fx.fenced(t, Tombstone{})
}

func TestHandoffTargetDownEndsRetries(t *testing.T) {
	tr := &fakeTransport{installs: []error{errLost, nil}}
	fx := newHandoffFixture(t, downSet{"http://b": true}, tr)
	if res := fx.run(); res.Outcome != Ambiguous || countPrefix(tr.calls, "install") != 1 {
		t.Fatalf("hand-off %+v after %v, want ambiguous after one PUT to a target declared down", res, tr.calls)
	}
	fx.fenced(t, Tombstone{1, "http://b"})
}

func TestHandoffUnwrittenFenceSendsNothing(t *testing.T) {
	fx := newHandoffFixture(t, nil, &fakeTransport{})
	fx.disk.fail = true
	if res := fx.run(); res.Outcome != Unfenced || res.Err == nil {
		t.Fatalf("hand-off %+v, want unfenced", res)
	}
	if _, moved := fx.tb.Tombstone("x"); moved || len(fx.tr.calls) != 0 {
		t.Fatalf("calls %v with no durable fence; the table still fences: %v", fx.tr.calls, moved)
	}
}

// TestHandoffResumeAsksRecordedTarget: a resume that names another target
// than the tombstone first asks the recorded one. Holding the topic, it is
// where the interrupted hand-off landed: nothing is sent and the tombstone
// keeps it. Unreachable, the resume re-points to the new target; refused
// there, the fence goes and the source takes the topic back, unless the new
// target's own fence refused it: the topic passed through there, and the
// tombstone leads on.
func TestHandoffResumeAsksRecordedTarget(t *testing.T) {
	resumeTo := func(tr *fakeTransport) *handoffFixture {
		fx := newHandoffFixture(t, nil, tr)
		if err := fx.tb.Fence("x", Tombstone{1, "http://c"}); err != nil {
			t.Fatal(err)
		}
		fx.disk.ops = nil
		return fx
	}
	fx := resumeTo(&fakeTransport{queries: []holds{{true, true}}})
	if res := fx.run(); res.Outcome != Installed || res.Target != "http://c" {
		t.Fatalf("resume %+v, want installed on the recorded target http://c", res)
	}
	fx.fenced(t, Tombstone{1, "http://c"})
	if len(fx.tr.calls) != 1 || fx.tr.calls[0] != "holds http://c x 1" || len(fx.disk.ops) != 0 {
		t.Fatalf("calls %v, disk %v: want one query of the recorded target and nothing else", fx.tr.calls, fx.disk.ops)
	}

	fx = resumeTo(&fakeTransport{queries: []holds{{false, false}}})
	if res := fx.run(); res.Outcome != Installed || res.Target != "http://b" {
		t.Fatalf("resume past an unreachable recorded target: %+v, want installed on http://b", res)
	}
	fx.fenced(t, Tombstone{1, "http://b"})

	fx = resumeTo(&fakeTransport{installs: []error{&Refusal{Err: errors.New("400")}}, queries: []holds{{false, true}}})
	if res := fx.run(); res.Outcome != Refused {
		t.Fatalf("refused resume: %+v", res)
	}
	fx.fenced(t, Tombstone{})

	fx = resumeTo(&fakeTransport{installs: []error{&Refusal{Fenced: true, Err: errors.New("409 epoch_mismatch")}}, queries: []holds{{false, true}}})
	if res := fx.run(); res.Outcome != Installed || res.Target != "http://b" || res.Err != nil {
		t.Fatalf("resume refused by the target's fence: %+v, want installed on http://b", res)
	}
	fx.fenced(t, Tombstone{1, "http://b"})
}
