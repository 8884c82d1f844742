package cluster

import (
	"context"
	"errors"
	"fmt"
)

// Transport carries a hand-off to another shard.
type Transport interface {
	// Install PUTs the hand-off snapshot of name on peer, once. Any answer
	// but a success is a *Refusal; any other error leaves the outcome
	// unknown.
	Install(ctx context.Context, peer, name string, snapshot []byte) error
	// Holds asks peer whether it serves name at an epoch ≥ epoch; reachable
	// is false when it could not be asked.
	Holds(ctx context.Context, peer, name string, epoch uint64) (has, reachable bool)
}

// Refusal is a target's answer that it did not install a hand-off. Exists
// says the name is taken there, which may be this very hand-off landed
// earlier; Transient, that the target failed (a 5xx) and a retry may not;
// Fenced, that its tombstone refuses the epoch: the topic passed through
// the target at that epoch or a later one.
type Refusal struct {
	Exists, Transient, Fenced bool
	Err                       error
}

func (r *Refusal) Error() string { return r.Err.Error() }
func (r *Refusal) Unwrap() error { return r.Err }

// Outcome is how a hand-off ended.
type Outcome int

const (
	Installed Outcome = iota // the target Handoff returns serves the topic, or served it and passed it on; the tombstone names it
	Refused                  // the target installed nothing
	Ambiguous                // the install may have landed
	Unfenced                 // the tombstone could not be written; nothing was sent
)

// Transfer is one hand-off: Snapshot, the state of Topic at Epoch, for
// Target. Resumable says the state is on disk, so a fence kept on an
// ambiguous outcome can be resumed; without it the fence goes.
type Transfer struct {
	Topic, Target string
	Epoch         uint64
	Snapshot      []byte
	Resumable     bool
}

// Handoff moves x onto its target, the live move and the resumed one alike,
// and returns where the topic lives when it is Installed. The tombstone is
// written before the first PUT, so from then on this shard refuses the
// topic's writes whatever crashes; a live hand-off that installed nothing,
// or whose outcome cannot be resumed, takes it back. An install whose
// outcome is unknown — no answer, a 5xx, topic_exists — is settled by asking
// the target whether it holds the topic at x.Epoch: it does (a lost ack), it
// does not (retry), or it cannot be asked (ambiguous). A resume naming
// another target than its tombstone first asks the recorded one: if that
// holds the topic, the interrupted hand-off landed there, and the tombstone
// keeps naming it. An ambiguous hand-off of resumable state stays Parked
// until a later Handoff of it reaches a verdict; a resume decides only on
// an answer that settles it. Refused by the target's fence, it is
// Installed: the topic reached the target, or a later epoch of it did, and
// the tombstone leads on from there. Refused by a target that failed (a
// 5xx), it stays Ambiguous: the target may hold it parked or have passed it
// on. Refused otherwise, the fence goes, as for a refused live hand-off,
// and the caller serves the state again.
func Handoff(ctx context.Context, t *Table, tr Transport, r Retry, x Transfer) (Outcome, string, error) {
	prev, resumed := t.Tombstone(x.Topic)
	if resumed && prev.Target != x.Target {
		if has, _ := tr.Holds(ctx, prev.Target, x.Topic, prev.Epoch); has {
			t.settle(x.Topic)
			return Installed, prev.Target, nil
		}
	}
	out, err := Unfenced, error(nil)
	if ts := (Tombstone{Epoch: x.Epoch, Target: x.Target}); ts != prev {
		err = t.Fence(x.Topic, ts)
	}
	if err == nil {
		out, err = install(ctx, tr, r, x)
	}
	if refusal := (*Refusal)(nil); resumed && out == Refused && errors.As(err, &refusal) {
		switch {
		case refusal.Fenced:
			out, err = Installed, nil
		case refusal.Transient:
			out = Ambiguous
		}
	}
	switch {
	case out == Installed:
		t.settle(x.Topic)
	case out == Ambiguous && x.Resumable:
		t.Park(x.Topic)
	case !resumed || out == Refused:
		t.Unfence(x.Topic)
	}
	return out, x.Target, err
}

// install PUTs x until the target holds it, refuses it, or cannot tell.
func install(ctx context.Context, tr Transport, r Retry, x Transfer) (Outcome, error) {
	out, answered := Ambiguous, false
	err := r.Do(ctx, x.Target, func() (bool, error) {
		err := tr.Install(ctx, x.Target, x.Topic, x.Snapshot)
		var refusal *Refusal
		if answered = errors.As(err, &refusal); answered && !refusal.Exists && !refusal.Transient {
			out = Refused // an epoch fence, a bad snapshot: a retry cannot change it
			return true, err
		}
		has, reachable := err == nil, true
		if !has {
			has, reachable = tr.Holds(ctx, x.Target, x.Topic, x.Epoch)
		}
		switch {
		case has:
			out = Installed
			return true, nil
		case !reachable:
			answered = false
			return true, fmt.Errorf("outcome unknown and %s cannot be asked: %w", x.Target, err)
		case answered && refusal.Exists:
			out = Refused // the name is taken there by other state
			return true, err
		}
		return false, err
	})
	if out == Ambiguous && answered {
		out = Refused // the last try was answered, and the target holds nothing
	}
	return out, err
}
