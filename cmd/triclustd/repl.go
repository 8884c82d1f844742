package main

// Replication (RF ≥ 2): after every acknowledged batch the owning shard
// ships the batch's journal frame to the topic's ring successors, so each
// topic's history exists on -replication-factor shards before the client
// sees the ack. Followers keep a *cold* replica — a base snapshot plus a
// verified journal tail, never an open Topic. internal/store owns that
// follower side. internal/repl owns the primary side: each topic
// instance's shipping record and the ship itself. internal/cluster owns
// the candidate sets, the election and the replica frame's epoch fence.
// This file keeps what needs the server: the replica handlers, the
// reconcile and rebalance steps of the shard's tick (server.tickLoop), the
// startup check and the promotion's durable step; peerClient is repl's
// Transport.
//
// Failure handling is layered on epoch fencing:
//
//   - the failure detector (cluster.Detector) probes every peer, one watch
//     goroutine each, apart from the tick; on every -probe-interval tick, a
//     cold replica whose source is down is promoted by its first live
//     candidate at epoch+1, and its files are dropped only once the
//     promoted topic is durable;
//   - a zombie primary discovers its demotion on its next ship: a follower
//     answers 409 epoch_mismatch, and the zombie fences itself with a
//     tombstone naming the new owner;
//   - an optional rebalancer (-auto-rebalance) moves held topics back onto
//     the ring as peers die and return.
//
// Shipping is semi-synchronous: the in-request ship succeeds, discovers a
// zombie, or marks the follower out of sync. The shipping records are the
// only to-do list: every -probe-interval the tick's reconcile step re-ships
// a full base to each served topic with a live follower out of sync, then
// promotes, so convergence depends on recorded state, never on which
// events arrived. A dead follower costs redundancy, never the write path.

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"slices"
	"strconv"
	"time"

	"triclust"
	"triclust/internal/cluster"
	"triclust/internal/codec"
	"triclust/internal/repl"
	"triclust/internal/store"
)

// epochHeader carries the responding shard's ownership epoch on a 409
// epoch_mismatch from the replica endpoint, so a fenced zombie can write
// a tombstone at exactly the epoch that demoted it.
const epochHeader = "X-Triclust-Epoch"

// replOptions are the replication tunables (flags in main.go; the test
// harness sets them directly).
type replOptions struct {
	// Factor is the replication factor: every topic lives on its primary
	// plus Factor-1 ring successors. 1 disables replication.
	Factor int
	// ProbeTimeout / ProbeFailures tune the failure detector, which probes
	// every serverOptions.probeEvery (see cluster.DetectorConfig).
	ProbeTimeout  time.Duration
	ProbeFailures int
	// AutoRebalance drives held topics back onto the ring every
	// probeEvery; off by default, preserving PR 5's pin semantics.
	AutoRebalance bool
}

// replAck is the follower's 200 body: the replica position after applying
// the frame, which the primary folds into the topic's shipping record.
type replAck struct {
	Batches   int    `json:"batches"`
	RandDraws uint64 `json:"rand_draws"`
}

// replicator holds one shard's replication machinery: the failure
// detector, whose per-peer watches run through server.spawn, and the tick
// steps (server.tickLoop) that act on what it and each topic's shipping
// record (internal/repl) say.
type replicator struct {
	s     *server
	opts  replOptions
	det   *cluster.Detector
	peers []string // every ring peer but self: what det watches

	// held is why the last promotion check kept each replica, and down the
	// peers the last reconcile step saw declared down; the tick logs either
	// only when it changes. Only the tick touches them.
	held map[string]string
	down []string
}

func newReplicator(s *server, m cluster.Membership, opts replOptions) *replicator {
	r := &replicator{s: s, opts: opts, held: make(map[string]string),
		peers: slices.DeleteFunc(slices.Clone(m.Ring.Peers()), func(p string) bool { return p == m.Self })}
	r.det = cluster.NewDetector(r.peers, r.probe, cluster.DetectorConfig{
		Interval:  s.probeEvery,
		Timeout:   opts.ProbeTimeout,
		Threshold: opts.ProbeFailures,
		Backoff:   s.peers.opts.Backoff,
		Sleep:     s.sleep,
	})
	s.peers.retry.Live = r.det
	return r
}

// probe is the detector's liveness check: the peer's readiness endpoint,
// under the detector's per-probe deadline.
func (r *replicator) probe(ctx context.Context, peer string) error {
	return r.s.peers.call(ctx, peerCall{method: http.MethodGet, peer: peer, path: "/v1/healthz"}, nil)
}

// reconcile is the tick's reconcile step: each served topic that
// NeedsResync gets a full re-ship to the followers that fell behind, then
// each held replica whose source is down is offered to maybePromote, in
// name order. Recorded state is the whole to-do list, so an out-of-sync
// follower or an orphaned replica is retried on every tick until it
// converges — whether or not another batch or peer event ever arrives, and
// whatever order the verdicts arrived in.
func (r *replicator) reconcile() {
	s := r.s
	if now := r.det.DownPeers(); !slices.Equal(now, r.down) {
		s.logf("peers declared down: %v (was %v)", now, r.down)
		r.down = now
	}
	for _, tp := range s.served() {
		if s.ctx.Err() != nil {
			return
		}
		if !tp.followers.NeedsResync(r.det) {
			continue
		}
		tp.mu.Lock()
		if s.admit(tp, opRead) == nil {
			if e := s.replShip(tp, nil, true); e != nil {
				s.logf("resync %q: %v", tp.name, e)
			}
		}
		tp.mu.Unlock()
	}
	held := s.store.Replicas()
	maps.DeleteFunc(r.held, func(name, _ string) bool { _, ok := held[name]; return !ok })
	for _, name := range slices.Sorted(maps.Keys(held)) {
		if s.ctx.Err() != nil {
			return
		}
		r.maybePromote(name, held[name])
	}
}

// replShip runs repl.Ship for tp (frame nil: the full snapshot); the caller
// holds tp.mu and has been admitted. A fence verdict fences the topic
// locally and is the caller's 409.
func (s *server) replShip(tp *topic, frame []byte, async bool) *apiError {
	if s.repl == nil {
		return nil
	}
	eng := tp.eng
	batches, draws := eng.StreamPos()
	fence, err := repl.Ship(s.ctx, &tp.followers, repl.Round{Topic: tp.name, Source: s.table.Self, Epoch: eng.Epoch(),
		Batches: batches, RandDraws: draws, Frame: frame, Snapshot: eng.Snapshot, Async: async, Live: s.repl.det, Logf: s.logf}, s.peers)
	switch {
	case err != nil:
		return errf(http.StatusInternalServerError, codeStorage, "export snapshot for replication: %w", err)
	case fence != nil:
		// A follower knows the topic at a higher epoch: someone promoted (or
		// the topic legitimately moved on) while this shard kept serving.
		ts := fence.Tombstone()
		s.fenceLocal(tp, ts.Epoch, ts.Target, fmt.Sprintf("follower %s fenced this shard (epoch %d > %d)", fence.Peer, fence.Epoch, eng.Epoch()))
		return &apiError{status: http.StatusConflict, code: codeEpochMismatch, epoch: fence.Epoch, owner: fence.Owner,
			err: fmt.Errorf("topic %q is now owned elsewhere at epoch %d (this shard was fenced; ask %s)", tp.name, fence.Epoch, fence.Owner)}
	}
	return nil
}

// fenceLocal demotes this shard's copy of a topic (why says who outranked
// it): a tombstone at the given epoch is written (so clients are redirected
// to target and stale-epoch state cannot re-register), the copy retired,
// and its files dropped. The tombstone goes first, as in a hand-off: the
// copy that outranks this one may register here the moment the name is
// free, and must clear the tombstone, not be followed by it. A topic
// retired already stays as it is. Caller holds tp.mu.
func (s *server) fenceLocal(tp *topic, epoch uint64, target, why string) {
	if tp.state.Load() == stRetired {
		return
	}
	s.logf("topic %q: %s; demoting local copy", tp.name, why)
	if err := s.table.Fence(tp.name, cluster.Tombstone{Epoch: epoch, Target: target}); err != nil {
		s.logf("fence %q: tombstone not persisted: %v", tp.name, err)
	}
	s.retire(tp)
	s.store.RemoveStale(tp.name, s.diskOf)
}

// dropReplicas asks a deleted topic's followers to drop their cold
// replicas (best effort, off the request path).
func (r *replicator) dropReplicas(tp *topic) {
	name, epoch, peers := tp.name, tp.eng.Epoch(), tp.followers.Peers()
	r.s.spawn(func() {
		for _, peer := range peers {
			_ = r.s.peers.call(r.s.ctx, peerCall{method: http.MethodDelete, peer: peer, timeout: defaultShipTimeout,
				path: "/v1/replica/" + name + "?epoch=" + strconv.FormatUint(epoch, 10)}, nil)
		}
	})
}

// ——— follower side: the replica endpoints ———

// replicaName is the shared preamble of the replica endpoints: they exist
// only with replication on, for a valid topic name.
func (s *server) replicaName(req *http.Request) (string, *apiError) {
	name := req.PathValue("topic")
	if s.repl == nil {
		return "", errf(http.StatusConflict, codeReplicationOff, "this daemon does not run replication (-replication-factor)")
	}
	if err := store.ValidTopicName(name); err != nil {
		return "", errf(http.StatusBadRequest, codeInvalidName, "%w", err)
	}
	return name, nil
}

// replicaAppend implements POST /v1/replica/{topic}/append — the wire a
// primary ships journal frames (and base snapshots) over.
func (s *server) replicaAppend(w http.ResponseWriter, req *http.Request) *apiError {
	name, e := s.replicaName(req)
	if e != nil {
		return e
	}
	if _, e := requireMediaType(req, mediaTypeSnapshot); e != nil {
		return e
	}
	body, e := readBody(req)
	if e != nil {
		return e
	}
	fr, err := codec.DecodeReplAppend(body)
	if err != nil {
		return errf(http.StatusBadRequest, codeInvalidRequest, "%w", err)
	}
	ack, e := s.storeFrame(name, fr)
	if e != nil {
		return e
	}
	writeJSON(w, http.StatusOK, ack)
	return nil
}

// storeFrame fences one shipped frame, then the store folds it into the
// cold replica of name. A frame the follower cannot reconcile with its
// replica answers 409 replica_out_of_sync, telling the primary to re-ship
// a full base; a duplicate (a retry whose ack was lost) is acknowledged.
func (s *server) storeFrame(name string, fr *codec.ReplAppend) (replAck, *apiError) {
	// The table's fence against this shard's own view of the topic: a copy
	// served here or a tombstone may outrank the shipper (it is the
	// zombie), or the served copy is the stale one — fenced here, before
	// the frame is stored. Demoting at equal epochs would deadlock against
	// the hand-off holding tp.mu, so the table accepts those.
	outranked := func(held uint64, owner, how string) (replAck, *apiError) {
		return replAck{}, &apiError{status: http.StatusConflict, code: codeEpochMismatch, epoch: held, owner: owner,
			err: fmt.Errorf("topic %q %s at epoch %d; refusing replica frames at epoch %d", name, how, held, fr.Epoch)}
	}
	tp, _ := s.route(name)
	var local uint64
	if tp != nil {
		local = tp.eng.Epoch()
	}
	switch v, ts := s.table.Frame(name, tp != nil, local, fr.Epoch, fr.Source); v {
	case cluster.Outranked:
		return outranked(ts.Epoch, ts.Target, "is held by "+ts.Target)
	case cluster.Demote:
		tp.mu.Lock()
		s.fenceLocal(tp, ts.Epoch, ts.Target, fmt.Sprintf("replica frame at epoch %d outranks local epoch %d", fr.Epoch, local))
		tp.mu.Unlock()
	}

	batches, draws, err := s.store.ApplyReplica(name, fr)
	var held *store.Outranked
	switch {
	case errors.As(err, &held):
		return outranked(held.Epoch, held.Source, "is held as a replica")
	case errors.Is(err, store.ErrReplicaOutOfSync):
		return replAck{}, &apiError{status: http.StatusConflict, code: codeReplicaOutOfSync, err: err}
	case err != nil:
		return replAck{}, &apiError{status: http.StatusInternalServerError, code: codeStorage, err: err}
	}
	return replAck{Batches: batches, RandDraws: draws}, nil
}

// replicaDrop implements DELETE /v1/replica/{topic}?epoch=N: the primary
// deleted the topic (or re-homed it), so the cold replica at epochs ≤ N
// is garbage.
func (s *server) replicaDrop(w http.ResponseWriter, req *http.Request) *apiError {
	name, e := s.replicaName(req)
	if e != nil {
		return e
	}
	epoch, err := strconv.ParseUint(req.URL.Query().Get("epoch"), 10, 64)
	if err != nil {
		return errf(http.StatusBadRequest, codeInvalidRequest, "bad epoch: %w", err)
	}
	s.store.DropReplica(name, epoch)
	w.WriteHeader(http.StatusNoContent)
	return nil
}

// ——— failover: promotion ———

// maybePromote promotes the replica of name, held at meta, when its
// recorded source is declared down, this shard is its first live promotion
// candidate, and no local topic holds the name. The candidate order is
// shared ring order, so exactly one shard elects itself per topic once
// detector views converge. A promotion that fails keeps the replica for
// the next tick.
func (r *replicator) maybePromote(name string, meta store.ReplicaMeta) {
	s := r.s
	if tp, _ := s.route(name); tp != nil {
		return
	}
	if first, ok := cluster.Elect(s.table.Ring, name, meta.Source, r.det); !ok || first != s.table.Self {
		return
	}
	// Split-brain guard: an operator move (or an earlier promotion) may
	// have re-homed the topic onto a shard that is alive and well — in
	// which case the replica is merely stale and promoting it would fork
	// history. Ask every live candidate before self-electing.
	for _, c := range cluster.Candidates(s.table.Ring, name, meta.Source) {
		if c == s.table.Self || r.det.Down(c) {
			continue
		}
		if has, _ := s.peers.Holds(s.ctx, c, name, meta.Epoch); has {
			r.hold(name, fmt.Sprintf("not promoting %q: %s already serves it at epoch ≥ %d", name, c, meta.Epoch))
			return
		}
	}
	if s.ctx.Err() != nil {
		// Closing: the guard's queries were cut short, not answered.
		return
	}
	// The store replayed the replica, fingerprint-verified; the topic takes
	// the create path's durable step one epoch past the dead primary's, and
	// its followers are seeded by the next tick's resync.
	epoch := meta.Epoch + 1
	err := s.store.PromoteReplica(name, func(tr *triclust.Topic, held store.ReplicaMeta) error {
		if held.Source != meta.Source || held.Epoch != meta.Epoch {
			return fmt.Errorf("re-based from %s at epoch %d since the check", held.Source, held.Epoch)
		}
		tr.SetEpoch(epoch)
		// Replay ran without a conformance mode (recorded batches were
		// already accepted by the dead primary); newTopic stamps this
		// shard's policy for the fresh batches.
		tp := s.newTopic(name, tr, false)
		tp.mu.Lock()
		defer tp.mu.Unlock()
		if e := s.persistNew(tp, epoch); e != nil {
			return e
		}
		s.logf("promoted replica %q to primary at epoch %d (%d batches; source %s is down)",
			name, epoch, tr.Batches(), meta.Source)
		return nil
	})
	if err != nil {
		r.hold(name, fmt.Sprintf("promote %q: %v (replica kept; retried every tick)", name, err))
	}
}

// hold logs why a promotion check kept the replica of name, once per
// reason.
func (r *replicator) hold(name, why string) {
	if why != r.held[name] {
		r.held[name] = why
		r.s.logf("%s", why)
	}
}

// reconcileStartup checks, once per boot and before the first tick,
// whether any locally served topic was promoted elsewhere while this shard
// was down (the restarted-zombie case): if a candidate serves the topic at
// a higher epoch, the local copy is fenced at once. It asks every
// candidate, because the topic may now live outside this shard's follower
// set, where no ship of its own would be refused.
func (r *replicator) reconcileStartup() {
	s := r.s
	for _, tp := range s.served() {
		if s.ctx.Err() != nil {
			return
		}
		epoch := tp.eng.Epoch()
		for _, peer := range cluster.Candidates(s.table.Ring, tp.name, s.table.Self) {
			if has, _ := s.peers.Holds(s.ctx, peer, tp.name, epoch+1); has {
				tp.mu.Lock()
				s.fenceLocal(tp, epoch, peer, fmt.Sprintf("re-homed to %s while this shard was down", peer))
				tp.mu.Unlock()
				break
			}
		}
	}
}

// ——— rebalancer ———

// rebalance is the tick's first step with -auto-rebalance: it converges
// this shard's held topics onto the ring, handing off through the ordinary
// move path each topic whose ring owner is a different live peer. Because
// placement is a consistent hash, the plan is exactly the minimal remap for
// whatever peers died or returned — topics still mapping here never move.
func (r *replicator) rebalance() {
	s := r.s
	var held []string
	for _, tp := range s.served() {
		held = append(held, tp.name)
	}
	for _, mv := range cluster.PlanRebalance(s.table.Ring, s.table.Self, held, func(p string) bool { return !r.det.Down(p) }) {
		if s.ctx.Err() != nil {
			return
		}
		// performHandoff logs the move; a topic gone meanwhile is skipped.
		if tp, _ := s.route(mv.Topic); tp != nil {
			if _, e := s.performHandoff(tp, mv.To); e != nil {
				s.logf("rebalance %q to %s: %v", mv.Topic, mv.To, e)
			}
		}
	}
}

// ——— health ———

// replicationHealth is the healthz view of this shard's replication
// state: its own factor, the peers it currently considers down, the cold
// replicas it holds, and the per-follower shipping lag of the topics it
// serves.
type replicationHealth struct {
	Factor    int        `json:"factor"`
	Replicas  int        `json:"replicas"`
	DownPeers []string   `json:"down_peers,omitempty"`
	Lag       []repl.Lag `json:"lag,omitempty"`
}

func (r *replicator) health() *replicationHealth {
	h := &replicationHealth{Factor: r.opts.Factor, DownPeers: r.det.DownPeers(), Replicas: len(r.s.store.Replicas())}
	for _, tp := range r.s.served() {
		h.Lag = tp.followers.AppendLag(h.Lag, tp.name, tp.eng.Batches())
	}
	return h
}
