// Package repl is the primary side of triclustd's journal-shipped
// replication: each topic instance's shipping record (Followers) and the
// ship of its latest state (Ship), to the followers cluster.Candidates
// names. It owns no goroutine, timer, lock or server: the daemon keeps a
// record per topic instance, ships under that topic's lock over a Transport
// and applies the Fence Ship may return. A record lives and dies with its
// instance, so a name served again starts with a fresh one.
package repl

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"io"
	"slices"
	"sync/atomic"

	"triclust/internal/cluster"
	"triclust/internal/codec"
)

// Ship's retry budgets per follower: the request path holds the topic lock
// with a client waiting, so a hung peer stalls its writers for about one
// ship timeout; the daemon's resync, a step of its tick, has no client
// waiting.
const requestAttempts, resyncAttempts = 2, 8

// Followers is the shipping record of one topic instance: its followers in
// ring order and what the primary knows of each. Only Ship writes it, under
// the topic's lock; NeedsResync and AppendLag read it without one. The zero
// value lists no follower.
type Followers struct {
	list []*follower
}

type follower struct {
	peer string
	// crc names the base the follower holds, not the primary's on-disk one:
	// the two differ between a resync and the next compaction. Ship's alone.
	crc    uint32
	acked  atomic.Int64 // the follower's batches at its last ack; -1: it never acked
	synced atomic.Bool
}

// NewFollowers is the record, with no ack yet, of name served by self.
func NewFollowers(ring *cluster.Ring, name, self string, factor int) Followers {
	var f Followers
	peers := cluster.Candidates(ring, name, self)
	for _, p := range peers[:min(len(peers), factor-1)] {
		fl := &follower{peer: p}
		fl.acked.Store(-1)
		f.list = append(f.list, fl)
	}
	return f
}

// Peers returns the followers in ring order.
func (f *Followers) Peers() []string {
	out := make([]string, len(f.list))
	for i, fl := range f.list {
		out[i] = fl.peer
	}
	return out
}

// NeedsResync reports whether a follower live does not declare down is out
// of sync or never acked.
func (f *Followers) NeedsResync(live cluster.Liveness) bool {
	return slices.ContainsFunc(f.list, func(fl *follower) bool { return !fl.synced.Load() && !live.Down(fl.peer) })
}

// Lag is one follower's shipping lag as healthz reports it: batches behind
// the primary since its last ack (0 when synced).
type Lag struct {
	Topic  string `json:"topic"`
	Peer   string `json:"peer"`
	Behind int    `json:"behind"`
	Synced bool   `json:"synced"`
}

// AppendLag appends to dst, in ring order, the lag behind batches of every
// follower of topic that ever acked.
func (f *Followers) AppendLag(dst []Lag, topic string, batches int) []Lag {
	for _, fl := range f.list {
		if acked := fl.acked.Load(); acked >= 0 {
			dst = append(dst, Lag{topic, fl.peer, max(0, batches-int(acked)), fl.synced.Load()})
		}
	}
	return dst
}

// Transport delivers one frame of topic to peer in up to attempts tries,
// returning the follower's batches after it, or its refusal as a *Refusal.
type Transport interface {
	Append(ctx context.Context, peer, topic string, fr *codec.ReplAppend, attempts int) (batches int, err error)
}

// Refusal is a follower's typed refusal of a frame: out of sync (it needs a
// full base), or Fenced — it knows the topic at Epoch, owned by Owner (zero
// values: it named none).
type Refusal struct {
	Fenced bool
	Epoch  uint64
	Owner  string
	Err    error
}

func (r *Refusal) Error() string { return r.Err.Error() }

// Round is one ship of a topic at its epoch and stream position: Frame, the
// just-appended journal frame, or if nil the full snapshot Snapshot writes.
// Async is the resync's: it skips synced followers.
type Round struct {
	Topic, Source string
	Epoch         uint64
	Batches       int
	RandDraws     uint64
	Frame         []byte
	Snapshot      func(io.Writer) error
	Async         bool
	Live          cluster.Liveness
	Logf          func(format string, args ...any)
}

// Fence is a follower's verdict that the shipping shard no longer owns the
// topic: Peer knows it at Epoch, owned by Owner.
type Fence struct {
	Peer  string
	Epoch uint64
	Owner string
}

// Tombstone is where the fenced local copy points: one epoch below the
// winner's, so the new owner's ships to this shard pass.
func (f *Fence) Tombstone() cluster.Tombstone {
	return cluster.Tombstone{Epoch: f.Epoch - 1, Target: f.Owner}
}

// Ship replicates a topic's latest state to the followers f lists, writing
// the snapshot at most once. An incremental frame refused as out of sync is
// retried once in full; any other failure marks the follower out of sync for
// the daemon's resync. A follower at a higher epoch ends the ship with its
// Fence, a snapshot that cannot be written with its error.
func Ship(ctx context.Context, f *Followers, r Round, t Transport) (*Fence, error) {
	attempts := requestAttempts
	if r.Async {
		attempts = resyncAttempts
	}
	var snap bytes.Buffer
	var snapCRC uint32
	for _, fl := range f.list {
		synced := fl.synced.Load()
		if r.Async && synced {
			continue
		}
		if r.Live.Down(fl.peer) {
			fl.synced.Store(false) // resynced on the first tick it answers
			continue
		}
		for full := r.Frame == nil || !synced; ; full = true {
			fr := codec.ReplAppend{Source: r.Source, Epoch: r.Epoch, SnapCRC: fl.crc, Tail: r.Frame,
				Batches: uint64(r.Batches), RandDraws: r.RandDraws}
			if full {
				if snap.Len() == 0 {
					if err := r.Snapshot(&snap); err != nil {
						return nil, err
					}
					snapCRC = codec.Checksum(snap.Bytes())
				}
				fr.Snapshot, fr.SnapCRC, fr.Tail = snap.Bytes(), snapCRC, nil
				fr.BaseBatches, fr.BaseRandDraws = fr.Batches, fr.RandDraws
			}
			batches, err := t.Append(ctx, fl.peer, r.Topic, &fr, attempts)
			var refusal *Refusal
			switch {
			case err == nil:
				fl.crc = fr.SnapCRC
				fl.acked.Store(int64(batches))
				fl.synced.Store(true)
			case errors.As(err, &refusal) && refusal.Fenced:
				return &Fence{Peer: fl.peer, Epoch: cmp.Or(refusal.Epoch, r.Epoch+1), Owner: cmp.Or(refusal.Owner, fl.peer)}, nil
			case refusal != nil && !full:
				continue
			default:
				fl.synced.Store(false)
				r.Logf("replicate %q to %s: %v (follower marked out of sync)", r.Topic, fl.peer, err)
			}
			break
		}
	}
	return nil, nil
}
