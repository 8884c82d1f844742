package main

// Replication (RF ≥ 2): after every acknowledged batch the owning shard
// ships the batch's journal frame to the topic's ring successors, so each
// topic's history exists on -replication-factor shards before the client
// sees the ack. Followers keep a *cold* replica — the base snapshot file
// plus a journal tail, verified frame-by-frame (CRC + the {batches,
// randDraws} fingerprints) — never an open Topic: replication costs
// follower disk and verification, not follower compute. internal/store
// owns that follower side: the replicas held and which frame one accepts.
//
// Failure handling is layered on the epoch fencing PR 5 introduced:
//
//   - a failure detector (internal/cluster.Detector) probes every peer's
//     /v1/healthz; on every -probe-interval tick, a cold replica whose
//     recorded source is declared down is promoted by the first live
//     member of its replica set — replayed through Topic.Process
//     (deterministic, fingerprint-verified), registered at epoch+1 and
//     saved like a new topic, the replica files dropped only once that
//     save is durable; a promotion that fails is tried again next tick;
//   - the zombie side of a promotion (the old primary, still running but
//     partitioned) discovers its demotion on its next ship: the follower
//     answers 409 epoch_mismatch, and the zombie fences itself — drops
//     the topic, writes a tombstone pointing at the new owner — so its
//     clients are redirected instead of fed forked state;
//   - an optional rebalancer (-auto-rebalance) converges held topics back
//     onto the ring as peers die and return, driving the existing move
//     path in the minimal-remap order the consistent hash gives for free.
//
// Shipping is semi-synchronous: the in-request ship (with bounded retries
// and backoff) must either succeed, discover a zombie, or mark the
// follower out of sync. Recorded state is the replicator's only to-do
// list: every -probe-interval the reconcile loop re-ships a full base to
// each served topic with a follower that is not down and is unknown or
// out of sync, then promotes the replicas whose source is down — so
// convergence and failover depend on what is recorded, never on which
// events arrived or in what order. A dead or flaky follower therefore
// degrades a topic from RF=N to fewer live copies — it never blocks the
// write path indefinitely, and healthz reports the lag so an operator can
// see the degradation.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"triclust"
	"triclust/internal/cluster"
	"triclust/internal/codec"
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
	// ProbeInterval / ProbeTimeout / ProbeFailures tune the failure
	// detector (see cluster.DetectorConfig).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	ProbeFailures int
	// AutoRebalance drives held topics back onto the ring every
	// RebalanceInterval; off by default, preserving PR 5's pin semantics.
	AutoRebalance     bool
	RebalanceInterval time.Duration
}

// withDefaults fills what the replicator itself reads; the detector
// defaults its own timeout and threshold (cluster.DetectorConfig).
func (o replOptions) withDefaults() replOptions {
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = time.Second
	}
	if o.RebalanceInterval <= 0 {
		o.RebalanceInterval = 10 * time.Second
	}
	return o
}

// followerState is the primary's book-keeping for one (topic, follower)
// pair: which base the follower holds and how far its tail reaches. The
// incremental frames a primary ships name the *follower's* base CRC, not
// the primary's on-disk one — the two legitimately diverge between a
// follower resync and the next compaction, and naming the follower's base
// is what keeps one resync from looping into another.
type followerState struct {
	snapCRC uint32
	batches int
	synced  bool
}

// replAck is the follower's 200 body: the replica position after applying
// the frame, which the primary folds into its followerState.
type replAck struct {
	Batches   int    `json:"batches"`
	RandDraws uint64 `json:"rand_draws"`
}

// replicator holds one shard's replication machinery: the failure
// detector, the per-follower shipping state for topics it serves, and the
// promotion policy for the cold replicas the store holds for peers. Its
// goroutines — one probe loop per peer, the reconcile loop, the optional
// rebalancer — run through server.spawn and end with the server's context.
type replicator struct {
	s     *server
	opts  replOptions
	det   *cluster.Detector
	peers []string // every ring peer but self: what det watches

	mu        sync.Mutex
	followers map[string]map[string]*followerState // topic → peer → state

	// held is why the last promotion check kept each replica; the tick logs
	// a reason only when it changes. Only the reconcile loop touches it.
	held map[string]string
}

func newReplicator(s *server, opts replOptions) *replicator {
	opts = opts.withDefaults()
	r := &replicator{
		s:         s,
		opts:      opts,
		followers: make(map[string]map[string]*followerState),
		held:      make(map[string]string),
	}
	for _, p := range s.cluster.ring.Peers() {
		if p != s.cluster.self {
			r.peers = append(r.peers, p)
		}
	}
	r.det = cluster.NewDetector(r.peers, r.probe, cluster.DetectorConfig{
		Interval:  opts.ProbeInterval,
		Timeout:   opts.ProbeTimeout,
		Threshold: opts.ProbeFailures,
		Backoff:   s.peers.opts.Backoff,
		Sleep:     s.sleep,
	})
	s.peers.down = r.det.Down
	return r
}

// probe is the detector's liveness check: the peer's readiness endpoint,
// under the detector's per-probe deadline.
func (r *replicator) probe(ctx context.Context, peer string) error {
	return r.s.peers.call(ctx, peerCall{method: http.MethodGet, peer: peer, path: "/v1/healthz"}, nil)
}

// start launches the detector's probe loops, the reconcile loop, the
// optional rebalancer, and the one-shot startup reconciliation.
func (r *replicator) start() {
	for _, p := range r.peers {
		r.s.spawn(func() { r.det.Watch(r.s.ctx, p) })
	}
	r.s.spawn(r.reconcileLoop)
	if r.opts.AutoRebalance {
		r.s.spawn(r.rebalanceLoop)
	}
	r.s.spawn(r.reconcileStartup)
}

// followerPeers returns the peers a topic this shard serves replicates
// to: the first Factor-1 ring-ordered replica-set members besides self.
// Using ring order keyed by the topic name (not by who currently serves
// it) keeps the set stable under operator moves and promotions.
func (r *replicator) followerPeers(name string) []string {
	set := r.candidates(name, r.s.cluster.self)
	return set[:min(len(set), r.opts.Factor-1)]
}

// candidates returns the ring-ordered promotion candidates for a topic
// whose shipping source died: every replica-set member except the source.
// Every live shard computes the same list, so "the first live candidate
// promotes" needs no coordination beyond converging failure detectors.
func (r *replicator) candidates(name, source string) []string {
	all := r.s.cluster.ring.Peers()
	set := r.s.cluster.ring.ReplicaSet(name, len(all))
	out := make([]string, 0, len(set))
	for _, p := range set {
		if p != source {
			out = append(out, p)
		}
	}
	return out
}

// ——— primary side: shipping ———

// follower returns a copy of the shipping state for (topic, peer).
func (r *replicator) follower(name, peer string) (followerState, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if st := r.followers[name][peer]; st != nil {
		return *st, true
	}
	return followerState{}, false
}

func (r *replicator) setFollower(name, peer string, st followerState) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.followers[name]
	if m == nil {
		m = make(map[string]*followerState)
		r.followers[name] = m
	}
	m[peer] = &st
}

func (r *replicator) markUnsynced(name, peer string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if st := r.followers[name][peer]; st != nil {
		st.synced = false
	}
}

// needsResync reports whether a topic this shard serves has a follower
// that is not declared down and is unknown or out of sync. It reads the
// recorded state under r.mu alone, so the reconcile loop never takes the
// lock of an idle or healthy topic.
func (r *replicator) needsResync(name string) bool {
	peers := r.followerPeers(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, peer := range peers {
		if st := r.followers[name][peer]; (st == nil || !st.synced) && !r.det.Down(peer) {
			return true
		}
	}
	return false
}

// reconcileLoop is the replicator's one reconciling tick, -probe-interval
// after the last one ended: each served topic that needsResync gets a full
// re-ship to the followers that fell behind, then each held replica whose
// source is down is offered to maybePromote. Recorded state is the whole
// to-do list, so an out-of-sync follower or an orphaned replica is retried
// on every tick until it converges — whether or not another batch or peer
// event ever arrives, and whatever order the verdicts arrived in.
func (r *replicator) reconcileLoop() {
	s := r.s
	var down []string
	for s.sleep(s.ctx, r.opts.ProbeInterval) {
		if now := r.det.DownPeers(); !slices.Equal(now, down) {
			s.logf("peers declared down: %v (was %v)", now, down)
			down = now
		}
		for _, tp := range s.served() {
			if s.ctx.Err() != nil {
				return
			}
			if !r.needsResync(tp.name) {
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
		for name, meta := range held {
			if s.ctx.Err() != nil {
				return
			}
			r.maybePromote(name, meta)
		}
	}
}

// post ships one replication frame to peer with bounded retries — safe,
// because the follower acknowledges a duplicate delivery (a retry whose
// first response was lost) idempotently.
func (r *replicator) post(peer, name string, fr *codec.ReplAppend, attempts int) (replAck, error) {
	var ack replAck
	err := r.s.peers.call(r.s.ctx, peerCall{
		method: http.MethodPost, peer: peer, path: "/v1/replica/" + name + "/append",
		body:    codec.AppendReplAppend(nil, fr),
		header:  http.Header{"Content-Type": {mediaTypeSnapshot}},
		timeout: defaultShipTimeout, attempts: attempts,
	}, &ack)
	return ack, err
}

// replShip replicates a topic's latest state to its followers; the caller
// holds tp.mu and has been admitted. frame non-nil ships that just-
// appended journal frame incrementally; frame nil ships the full current
// snapshot — the first-contact, post-compaction and resync path. async
// marks the reconcile loop's mode: skip followers already in sync, and
// retry with the full shipResyncAttempts budget (no client is waiting);
// the request path gets shipRequestAttempts.
//
// The only failure that propagates is discovering this shard is a fenced
// zombie (a follower answered epoch_mismatch): the topic is fenced
// locally and the caller must fail the client's request with 409. Every
// other failure degrades: the follower is marked out of sync, which the
// reconcile loop reads, and the batch acks with fewer live copies.
func (s *server) replShip(tp *topic, frame []byte, async bool) *apiError {
	r := s.repl
	if r == nil {
		return nil
	}
	peers := r.followerPeers(tp.name)
	if len(peers) == 0 {
		return nil
	}
	attempts := shipRequestAttempts
	if async {
		attempts = shipResyncAttempts
	}
	epoch := tp.eng().Epoch()
	// The post-append fingerprint the frame (or the full snapshot) carries.
	batches, draws := tp.eng().StreamPos()
	// The full snapshot is built at most once per ship round and reused
	// across followers.
	var fullSnap []byte
	var fullCRC uint32
	buildFull := func() error {
		if fullSnap != nil {
			return nil
		}
		var buf bytes.Buffer
		if err := tp.eng().Snapshot(&buf); err != nil {
			return err
		}
		fullSnap = buf.Bytes()
		fullCRC = codec.Checksum(fullSnap)
		return nil
	}
	for _, peer := range peers {
		st, known := r.follower(tp.name, peer)
		if async && known && st.synced {
			continue
		}
		if r.det.Down(peer) {
			// The reconcile loop skips a down peer and picks it up again on
			// the first tick after it answers.
			r.markUnsynced(tp.name, peer)
			continue
		}
		full := frame == nil || !known || !st.synced
		// At most two passes: an incremental ship the follower refuses as
		// out-of-sync is retried once as a full ship.
		for pass := 0; pass < 2; pass++ {
			fr := codec.ReplAppend{Source: s.cluster.self, Epoch: epoch,
				Batches: uint64(batches), RandDraws: draws}
			crc := st.snapCRC
			if full {
				if err := buildFull(); err != nil {
					return errf(http.StatusInternalServerError, codeStorage, "export snapshot for replication: %w", err)
				}
				crc = fullCRC
				fr.Snapshot = fullSnap
				fr.BaseBatches = uint64(batches)
				fr.BaseRandDraws = draws
			} else {
				fr.Tail = frame
			}
			fr.SnapCRC = crc
			ack, err := r.post(peer, tp.name, &fr, attempts)
			if err == nil {
				r.setFollower(tp.name, peer, followerState{snapCRC: crc, batches: ack.Batches, synced: true})
				break
			}
			var refusal *apiError
			errors.As(err, &refusal)
			if refusal != nil && refusal.code == codeEpochMismatch {
				// The follower knows the topic at a higher epoch: someone
				// promoted (or the topic legitimately moved on) while this
				// shard kept serving. Fence ourselves at just below the
				// winning epoch so the new owner's ships to *us* pass and
				// our clients are redirected to it.
				fe, target := refusal.epoch, refusal.owner
				if fe == 0 {
					fe = epoch + 1
				}
				if target == "" {
					target = peer
				}
				s.fenceLocal(tp, fe-1, target, fmt.Sprintf("follower %s fenced this shard (epoch %d > %d)", peer, fe, epoch))
				return &apiError{status: http.StatusConflict, code: codeEpochMismatch, epoch: fe, owner: target,
					err: fmt.Errorf("topic %q is now owned elsewhere at epoch %d (this shard was fenced; ask %s)", tp.name, fe, target)}
			}
			if refusal != nil && refusal.code == codeReplicaOutOfSync && !full {
				full = true
				continue
			}
			r.markUnsynced(tp.name, peer)
			s.logf("replicate %q to %s: %v (follower marked out of sync)", tp.name, peer, err)
			break
		}
	}
	return nil
}

// fenceLocal demotes this shard's copy of a topic (why says who outranked
// it): it is retired, a tombstone at the given epoch written (so clients
// are redirected to target and stale-epoch state cannot re-register), and
// its files dropped. A topic retired already stays as it is. Caller holds
// tp.mu.
func (s *server) fenceLocal(tp *topic, epoch uint64, target, why string) {
	if !s.retire(tp) {
		return
	}
	s.logf("topic %q: %s; demoting local copy", tp.name, why)
	if err := s.setMoved(tp.name, cluster.Tombstone{Epoch: epoch, Target: target}); err != nil {
		s.logf("fence %q: tombstone not persisted: %v", tp.name, err)
	}
	s.dropRetired(tp.name)
}

// dropRetired clears what a retired topic leaves here: its files, unless a
// newer instance of the name owns them (store.RemoveStale), and its
// followers' shipping state. A fencing tombstone is written before it.
func (s *server) dropRetired(name string) {
	s.store.RemoveStale(name, s.diskOf)
	if r := s.repl; r != nil {
		r.mu.Lock()
		delete(r.followers, name)
		r.mu.Unlock()
	}
}

// dropReplicas asks a deleted topic's followers to drop their cold
// replicas (best effort, off the request path).
func (r *replicator) dropReplicas(name string, epoch uint64) {
	peers := r.followerPeers(name)
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
	// Epoch fencing against this shard's own view of the topic. A local
	// copy at a strictly higher epoch outranks the shipper (it is the
	// zombie); a local copy at a lower epoch means *we* are stale — fence
	// ourselves, then accept the replica. Equal epochs are the hand-off
	// window: this shard is mid-move of the topic to the shipper (our
	// tombstone at newEpoch is already down, the local copy is about to be
	// dropped when the install PUT we are serving right now acks), so the
	// frame is stored as a replica without touching the served topic —
	// demoting here would deadlock against the hand-off holding tp.mu, and
	// refusing would fence the legitimate new owner.
	outranked := func(held uint64, owner, how string) (replAck, *apiError) {
		return replAck{}, &apiError{status: http.StatusConflict, code: codeEpochMismatch, epoch: held, owner: owner,
			err: fmt.Errorf("topic %q %s at epoch %d; refusing replica frames at epoch %d", name, how, held, fr.Epoch)}
	}
	pl := s.resolve(name)
	if tp := pl.tp; tp != nil {
		if le := tp.eng().Epoch(); le > fr.Epoch {
			return outranked(le, s.cluster.self, "is served here")
		} else if le < fr.Epoch {
			tp.mu.Lock()
			s.fenceLocal(tp, fr.Epoch-1, fr.Source,
				fmt.Sprintf("replica frame at epoch %d outranks local epoch %d", fr.Epoch, le))
			tp.mu.Unlock()
		}
	} else if pl.moved && pl.epoch > fr.Epoch {
		// The tombstone records the epoch the topic *left* at — the new
		// owner legitimately ships at exactly that epoch, so only strictly
		// older frames are the fenced zombie's.
		return outranked(pl.epoch, pl.owner, "was handed off")
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
	if s.resolve(name).tp != nil {
		return
	}
	cands := r.candidates(name, meta.Source)
	if first, ok := r.det.FirstLive(cands); !r.det.Down(meta.Source) || !ok || first != s.cluster.self {
		return
	}
	// Split-brain guard: an operator move (or an earlier promotion) may
	// have re-homed the topic onto a shard that is alive and well — in
	// which case the replica is merely stale and promoting it would fork
	// history. Ask every live candidate before self-electing.
	for _, c := range cands {
		if c == s.cluster.self || r.det.Down(c) {
			continue
		}
		if has, _ := s.targetTopicState(c, name, meta.Epoch); has {
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

// reconcileStartup checks, once per boot, whether any locally served
// topic was promoted elsewhere while this shard was down (the restarted-
// zombie case): if a live replica-set peer serves the topic at a higher
// epoch, the local copy is fenced immediately instead of waiting to be
// fenced on its next ship.
func (r *replicator) reconcileStartup() {
	s := r.s
	for _, tp := range s.served() {
		if s.ctx.Err() != nil {
			return
		}
		epoch := tp.eng().Epoch()
		for _, peer := range r.candidates(tp.name, s.cluster.self) {
			if has, _ := s.targetTopicState(peer, tp.name, epoch+1); has {
				tp.mu.Lock()
				s.fenceLocal(tp, epoch, peer, fmt.Sprintf("re-homed to %s while this shard was down", peer))
				tp.mu.Unlock()
				break
			}
		}
	}
}

// ——— rebalancer ———

// rebalanceLoop converges this shard's held topics onto the ring,
// -rebalance-interval after its last round ended: topics whose ring owner
// is a different live peer are handed off through the ordinary move path.
// Because placement is a consistent hash, the plan is exactly the minimal
// remap for whatever peers died or returned — topics still mapping here
// never move.
func (r *replicator) rebalanceLoop() {
	for r.s.sleep(r.s.ctx, r.opts.RebalanceInterval) {
		r.rebalanceOnce()
	}
}

func (r *replicator) rebalanceOnce() {
	s := r.s
	served := s.served()
	held := make([]string, len(served))
	for i, tp := range served {
		held[i] = tp.name
	}
	plan := cluster.PlanRebalance(s.cluster.ring, s.cluster.self, held, func(p string) bool {
		return !r.det.Down(p)
	})
	for _, mv := range plan {
		if s.ctx.Err() != nil {
			return
		}
		tp := s.resolve(mv.Topic).tp
		if tp == nil {
			continue
		}
		resp, e := s.performHandoff(tp, mv.To)
		if e != nil {
			s.logf("rebalance %q to %s: %v", mv.Topic, mv.To, e)
			continue
		}
		s.logf("rebalanced %q to its ring owner %s at epoch %d", mv.Topic, mv.To, resp.Epoch)
	}
}

// ——— health ———

// replicationHealth is the healthz view of this shard's replication
// state: its own factor, the peers it currently considers down, the cold
// replicas it holds, and the per-follower shipping lag of the topics it
// serves (behind = primary batches − follower batches; a synced follower
// is at 0).
type replicationHealth struct {
	Factor    int              `json:"factor"`
	Replicas  int              `json:"replicas"`
	DownPeers []string         `json:"down_peers,omitempty"`
	Lag       []replicaLagJSON `json:"lag,omitempty"`
}

type replicaLagJSON struct {
	Topic  string `json:"topic"`
	Peer   string `json:"peer"`
	Behind int    `json:"behind"`
	Synced bool   `json:"synced"`
}

func (r *replicator) health() *replicationHealth {
	h := &replicationHealth{Factor: r.opts.Factor, DownPeers: r.det.DownPeers(), Replicas: len(r.s.store.Replicas())}
	served := r.s.served()
	r.mu.Lock()
	for _, tp := range served {
		batches := tp.eng().Batches()
		for peer, st := range r.followers[tp.name] {
			behind := max(0, batches-st.batches)
			h.Lag = append(h.Lag, replicaLagJSON{Topic: tp.name, Peer: peer, Behind: behind, Synced: st.synced})
		}
	}
	r.mu.Unlock()
	return h
}
