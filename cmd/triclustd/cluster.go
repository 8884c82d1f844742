package main

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strings"

	"triclust/internal/cluster"
	"triclust/internal/store"
)

// Cluster mode shards the topic registry across processes. Each shard is
// a full triclustd with the same static peer list; a consistent-hash ring
// (internal/cluster) assigns every topic name an owning shard, so no
// placement table is stored or gossiped. A request arriving at the wrong
// shard is answered 307 + Location + X-Triclust-Shard and the client
// re-sends it there; a shard relays no client's request. Who owns a name
// is resolve's answer.
//
// Topic moves (POST /v1/cluster/move) drain the topic under its lock,
// compact the journal into a final snapshot, bump the ownership epoch,
// install the snapshot on the target through the ordinary restore
// endpoint (with the hand-off header pinning it there), and only then
// drop the local copy — leaving a persisted tombstone so a restarted
// source shard still refuses the topic's writes.

// handoffHeader marks a snapshot PUT as a hand-off installation: the
// receiving shard accepts the topic regardless of ring placement (the
// move pins it) instead of redirecting the request back.
const handoffHeader = "X-Triclust-Handoff"

// shardHeader names the shard a request should be routed to; it is set on
// every 307 and on fencing refusals.
const shardHeader = "X-Triclust-Shard"

// clusterConfig is one shard's view of the cluster: its own identity and
// the ring shared by every shard.
type clusterConfig struct {
	self string // this shard's base URL; must be a ring member
	ring *cluster.Ring
}

// newClusterConfig validates and assembles the cluster flags: peers is
// the comma-separated static shard list (base URLs), self must be one of
// them, vnodes the virtual-node count (<=0: default).
func newClusterConfig(self, peers string, vnodes int) (*clusterConfig, error) {
	var list []string
	for _, p := range strings.Split(peers, ",") {
		p = strings.TrimSuffix(strings.TrimSpace(p), "/")
		if p == "" {
			continue
		}
		u, err := url.Parse(p)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("cluster: peer %q is not a base URL", p)
		}
		list = append(list, p)
	}
	ring, err := cluster.New(list, vnodes)
	if err != nil {
		return nil, err
	}
	self = strings.TrimSuffix(strings.TrimSpace(self), "/")
	if !ring.Contains(self) {
		return nil, fmt.Errorf("cluster: -self %q is not in -peers %q", self, peers)
	}
	return &clusterConfig{self: self, ring: ring}, nil
}

// placement is resolve's answer: where a topic name lives as far as this
// shard knows.
type placement struct {
	tp    *topic // non-nil: registered here
	owner string // the shard to ask ("" when unknown outside cluster mode)
	moved bool   // owner comes from a hand-off tombstone left at epoch
	epoch uint64
}

// resolve is the only reader of the ownership layers, in their order:
//
//  1. registry — a topic this shard holds is served here, even when the
//     ring disagrees (an operator move overrode placement);
//  2. tombstone — a topic this shard handed off is redirected to the
//     recorded target and its writes refused forever at epochs ≤ the
//     hand-off epoch;
//  3. ring — everything else goes to the consistent-hash owner, or, with
//     replication on and that owner down, to the first live replica-set
//     member: the shard that has promoted (or is about to promote) the
//     topic's cold replica. When that is this shard the registry answers
//     404 until the promotion lands and clients retry — strictly better
//     than redirecting into a dead shard's connection timeouts.
func (s *server) resolve(name string) placement {
	s.mu.RLock()
	tp := s.topics[name]
	mv, moved := s.moved[name]
	s.mu.RUnlock()
	var self string
	if s.cluster != nil {
		self = s.cluster.self
	}
	switch {
	case tp != nil:
		return placement{tp: tp, owner: self}
	case moved:
		return placement{owner: mv.Target, moved: true, epoch: mv.Epoch}
	case s.cluster == nil:
		return placement{}
	}
	owner := s.cluster.ring.Owner(name)
	if rp := s.repl; rp != nil && owner != self && rp.det.Down(owner) {
		if alt, ok := rp.det.FirstLive(rp.candidates(name, owner)); ok {
			owner = alt
		}
	}
	return placement{owner: owner}
}

// served returns the registered topics.
func (s *server) served() []*topic {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*topic, 0, len(s.topics))
	for _, tp := range s.topics {
		out = append(out, tp)
	}
	return out
}

// routeTopic decides whether this shard serves the request for name,
// reporting true (and the topic, if registered) to continue locally. When
// another shard owns the topic the request is redirected there and
// routeTopic reports false with the response written. Hand-off PUTs bypass
// routing: the move pins the topic here.
func (s *server) routeTopic(w http.ResponseWriter, r *http.Request, name string) (*topic, bool) {
	pl := s.resolve(name)
	if s.cluster == nil || pl.owner == s.cluster.self || r.Header.Get(handoffHeader) != "" {
		return pl.tp, true
	}
	forward(w, r, pl.owner)
	return nil, false
}

// refuse hands e back to be the answer — unless the topic merely moved:
// a request that found it, then waited out a hand-off on the topic lock,
// sees a retired topic whose tombstone says where it lives now, and is
// redirected there (nil: response written) instead of told 404.
func (s *server) refuse(w http.ResponseWriter, r *http.Request, name string, e *apiError) *apiError {
	if e.code == codeTopicNotFound && s.cluster != nil {
		if pl := s.resolve(name); pl.moved {
			forward(w, r, pl.owner)
			return nil
		}
	}
	return e
}

// forward answers 307 with the same request URI on target, naming target
// in X-Triclust-Shard. The client re-sends the method and body there; a
// chain of hops (wrong shard → ring owner → tombstone target) is bounded
// by the client's own redirect cap.
func forward(w http.ResponseWriter, r *http.Request, target string) {
	w.Header().Set(shardHeader, target)
	http.Redirect(w, r, target+r.URL.RequestURI(), http.StatusTemporaryRedirect)
}

// setMoved records a hand-off tombstone — memory first, then the durable
// marker — fencing the topic's writes at epochs ≤ ts.Epoch from this
// moment on. It is written *before* the hand-off PUT so no crash
// interleaving leaves two shards accepting writes for the topic.
func (s *server) setMoved(name string, ts cluster.Tombstone) error {
	s.mu.Lock()
	s.moved[name] = ts
	s.mu.Unlock()
	return s.store.SetTombstone(name, ts)
}

// clearMoved undoes setMoved after a failed hand-off.
func (s *server) clearMoved(name string) {
	s.mu.Lock()
	delete(s.moved, name)
	s.mu.Unlock()
	if err := s.store.ClearTombstone(name); err != nil {
		s.logf("remove tombstone %q: %v", name, err)
	}
}

// ——— wire types ———

type moveRequest struct {
	Topic string `json:"topic"`
	// Target is the receiving shard's base URL; it must be a ring member
	// other than this shard.
	Target string `json:"target"`
}

type moveResponse struct {
	Topic   string `json:"topic"`
	Source  string `json:"source"`
	Target  string `json:"target"`
	Epoch   uint64 `json:"epoch"`
	Batches int    `json:"batches"`
	// Resumed reports that this call completed an earlier, interrupted
	// hand-off (the daemon crashed between fencing and installing).
	Resumed bool `json:"resumed,omitempty"`
}

// moveTopic implements POST /v1/cluster/move, the operator-driven
// rebalance path. The request is routed like any topic request, so the
// operator may address any shard; the shard currently holding the topic
// performs the drain → compact → export → install → drop sequence.
func (s *server) moveTopic(w http.ResponseWriter, r *http.Request) *apiError {
	if _, e := requireMediaType(r, mediaTypeJSON); e != nil {
		return e
	}
	if s.cluster == nil {
		return errNotClustered()
	}
	body, e := readBody(r)
	if e != nil {
		return e
	}
	var req moveRequest
	if err := decodeStrict(body, &req); err != nil {
		return errf(http.StatusBadRequest, codeInvalidRequest, "decode: %w", err)
	}
	if err := store.ValidTopicName(req.Topic); err != nil {
		return errf(http.StatusBadRequest, codeInvalidName, "%w", err)
	}
	req.Target = strings.TrimSuffix(strings.TrimSpace(req.Target), "/")
	if !s.cluster.ring.Contains(req.Target) {
		return errf(http.StatusBadRequest, codeUnknownPeer, "target %q is not a cluster peer", req.Target)
	}

	pl := s.resolve(req.Topic)
	switch {
	case pl.tp != nil:
		// fall through to the live hand-off below
	case pl.moved && s.store.HasSnapshot(req.Topic):
		// A tombstone *and* the snapshot still on disk is the signature of
		// a hand-off interrupted between fencing and installation: the
		// topic serves nothing until a move retry completes the install.
		return s.resumeMove(w, req, cluster.Tombstone{Epoch: pl.epoch, Target: pl.owner})
	case pl.owner != s.cluster.self:
		// The topic moved on (or never lived here); route the move to its
		// current holder so "POST to any shard" keeps holding.
		forward(w, r, pl.owner)
		return nil
	default:
		return errf(http.StatusNotFound, codeTopicNotFound, "unknown topic %q", req.Topic)
	}
	if req.Target == s.cluster.self {
		return errf(http.StatusBadRequest, codeInvalidRequest, "topic %q already lives on %s", req.Topic, s.cluster.self)
	}

	resp, e := s.performHandoff(pl.tp, req.Target)
	if e != nil {
		return s.refuse(w, r, req.Topic, e)
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}

func errNotClustered() *apiError {
	return errf(http.StatusConflict, codeNotClustered, "this daemon is not running in cluster mode (-peers/-self)")
}

// performHandoff executes the drain → compact → export → install → drop
// sequence moving tp to target. It is the shared spine of the operator
// move endpoint and the automatic rebalancer; the caller must not hold
// tp.mu.
func (s *server) performHandoff(tp *topic, target string) (moveResponse, *apiError) {
	// Holding the topic lock for the whole hand-off *is* the drain: any
	// in-flight batch finished before we got the lock, and every batch
	// that arrives while we hold it blocks, then finds the topic retired
	// and follows the tombstone to the target.
	tp.mu.Lock()
	defer tp.mu.Unlock()
	if e := s.admit(tp, opWrite); e != nil {
		return moveResponse{}, e
	}
	// Final compaction: fold the journal tail into one fresh snapshot so
	// the exported state is the complete, settled history.
	if err := s.saveIfCurrent(tp); err != nil {
		return moveResponse{}, errf(http.StatusInternalServerError, codeStorage, "final compaction before hand-off: %w", err)
	}

	oldEpoch := tp.eng().Epoch()
	newEpoch := oldEpoch + 1
	tp.eng().SetEpoch(newEpoch)
	var snap bytes.Buffer
	if err := tp.eng().Snapshot(&snap); err != nil {
		tp.eng().SetEpoch(oldEpoch)
		return moveResponse{}, errf(http.StatusInternalServerError, codeStorage, "export snapshot: %w", err)
	}
	ts := cluster.Tombstone{Epoch: newEpoch, Target: target}
	if err := s.setMoved(tp.name, ts); err != nil {
		s.clearMoved(tp.name)
		tp.eng().SetEpoch(oldEpoch)
		return moveResponse{}, errf(http.StatusInternalServerError, codeStorage, "persist hand-off intent: %w", err)
	}
	if err := s.installOn(target, tp.name, snap.Bytes(), newEpoch); err != nil {
		// A refusal installed nothing: un-fence and keep serving. Anything
		// else is *ambiguous* — the PUT may have been applied — so
		// un-fencing could let both shards accept writes and fork the
		// topic. With a data directory the safe resolution exists: keep
		// the fence, park the topic in the interrupted-hand-off state
		// (tombstone + on-disk snapshot) and let a move retry resume it.
		// Without one there is nothing to resume from, so in-memory
		// clusters choose availability and un-fence.
		var refusal *apiError
		if errors.As(err, &refusal) || s.store == nil {
			s.clearMoved(tp.name)
			tp.eng().SetEpoch(oldEpoch)
			return moveResponse{}, errf(http.StatusBadGateway, codeMoveFailed, "install %q on %s: %w", tp.name, target, err)
		}
		s.retire(tp)
		s.logf("hand-off of %q to %s is ambiguous (%v); fence kept, retry the move to resume", tp.name, target, err)
		return moveResponse{}, errf(http.StatusBadGateway, codeMoveFailed,
			"install %q on %s did not complete: %v — the topic is fenced; retry the move to resume the hand-off",
			tp.name, target, err)
	}

	// The target owns the topic now. Drop the local copy: registry entry,
	// journal handle, snapshot and journal files — the tombstone stays.
	batches := tp.eng().Batches()
	s.retire(tp)
	s.dropRetired(tp.name)
	s.logf("moved topic %q to %s at epoch %d (%d batches)", tp.name, target, newEpoch, batches)
	return moveResponse{
		Topic: tp.name, Source: s.cluster.self, Target: target,
		Epoch: newEpoch, Batches: batches,
	}, nil
}

// installOn PUTs a snapshot onto the target shard through the ordinary
// restore endpoint, marked as a hand-off so the target pins the topic.
// Nil means installed. An error that is an *apiError is the target's
// considered refusal — it answered, and holds nothing; any other error is
// ambiguous: the PUT may or may not have been applied.
//
// A hand-off PUT is not blindly idempotent: if an earlier attempt landed
// but its response was lost, the retry is refused with topic_exists —
// which must read as success. So after every attempt of unknown outcome
// (no answer, a 5xx, topic_exists) the target's placement is queried at
// the hand-off epoch: already-installed resolves to success, reachable-
// but-absent makes the retry safe, and unreachable stays ambiguous.
func (s *server) installOn(target, name string, snapshot []byte, epoch uint64) error {
	return s.peers.call(s.ctx, peerCall{
		method: http.MethodPut, peer: target, path: "/v1/topics/" + name, body: snapshot,
		header:   http.Header{"Content-Type": {mediaTypeSnapshot}, handoffHeader: {"1"}},
		attempts: peerAttempts,
		settle: func(err error) (bool, error) {
			var refusal *apiError
			exists := errors.As(err, &refusal) && refusal.code == codeTopicExists
			if refusal != nil && refusal.status < 500 && !exists {
				return true, err // epoch fence, invalid snapshot: retrying cannot change it
			}
			has, reachable := s.targetTopicState(target, name, epoch)
			switch {
			case has:
				return true, nil
			case exists:
				return true, err // the name is taken there by other state
			case !reachable:
				return true, fmt.Errorf("outcome unknown and %s cannot be asked: %v", target, err)
			}
			return false, nil
		},
	}, nil)
}

// resumeMove completes an interrupted hand-off: the tombstone recorded
// the fencing epoch, the snapshot is still on disk, so re-export it at
// that epoch and install it on the requested target. Retrying against a
// different target than first recorded is allowed (the first target may
// be the shard that died) and re-points the tombstone.
func (s *server) resumeMove(w http.ResponseWriter, req moveRequest, mv cluster.Tombstone) *apiError {
	if req.Target == s.cluster.self {
		return errf(http.StatusBadRequest, codeInvalidRequest, "cannot resume a hand-off onto the fencing shard")
	}
	// A real interruption fell between the final compaction and the
	// install, so the journal should be empty — but any tail it does hold
	// is replayed (same verified path as startup recovery) rather than
	// silently dropping acked batches from an unexpected state.
	rt, err := s.store.Load(req.Topic)
	if err != nil {
		return errf(http.StatusInternalServerError, codeStorage, "reload pending snapshot: %w", err)
	}
	tp := rt.Topic
	// The on-disk snapshot predates the epoch bump (it was the final
	// compaction); re-stamp it with the fencing epoch before installing.
	tp.SetEpoch(mv.Epoch)
	var snap bytes.Buffer
	if err := tp.Snapshot(&snap); err != nil {
		return errf(http.StatusInternalServerError, codeStorage, "%w", err)
	}
	if req.Target != mv.Target {
		mv = cluster.Tombstone{Epoch: mv.Epoch, Target: req.Target}
		if err := s.setMoved(req.Topic, mv); err != nil {
			return errf(http.StatusInternalServerError, codeStorage, "%w", err)
		}
	}
	// If the interrupted hand-off's original PUT did land, installOn's
	// placement query finds the topic there and reports success.
	if err := s.installOn(req.Target, req.Topic, snap.Bytes(), mv.Epoch); err != nil {
		return errf(http.StatusBadGateway, codeMoveFailed, "install %q on %s: %w", req.Topic, req.Target, err)
	}
	// The leftover files go unless the topic has meanwhile come back and
	// saved here — then they are its own.
	s.store.RemoveStale(req.Topic, s.diskOf)
	s.logf("resumed interrupted hand-off of %q to %s at epoch %d", req.Topic, req.Target, mv.Epoch)
	writeJSON(w, http.StatusOK, moveResponse{
		Topic: req.Topic, Source: s.cluster.self, Target: req.Target,
		Epoch: mv.Epoch, Batches: tp.Batches(), Resumed: true,
	})
	return nil
}

// targetTopicState asks target whether it serves name locally at an epoch
// at least the given one — the signature of a hand-off (or promotion)
// that already happened there. reachable distinguishes "asked, and the
// topic is not there" from "could not ask": a retryable from an ambiguous
// hand-off failure. An idempotent GET, so it retries.
func (s *server) targetTopicState(target, name string, epoch uint64) (has, reachable bool) {
	var info clusterInfoResponse
	err := s.peers.call(s.ctx, peerCall{method: http.MethodGet, peer: target,
		path: "/v1/cluster/info?topic=" + name, attempts: peerAttempts}, &info)
	return err == nil && info.Topic != nil && info.Topic.Local && info.Topic.Epoch >= epoch, err == nil
}

// clusterInfoResponse describes this shard's placement view; with
// ?topic=name it also resolves where that topic should be asked for.
type clusterInfoResponse struct {
	Self   string          `json:"self"`
	Peers  []string        `json:"peers"`
	Vnodes int             `json:"vnodes"`
	Topic  *topicPlacement `json:"topic,omitempty"`
}

type topicPlacement struct {
	Name string `json:"name"`
	// Owner is where this shard would route the topic: itself, the
	// tombstone target, or the ring owner.
	Owner string `json:"owner"`
	// Local reports the topic is registered on this shard.
	Local bool `json:"local"`
	// Epoch is the hand-off epoch when a tombstone exists, else the local
	// topic's epoch (0 when neither applies).
	Epoch uint64 `json:"epoch"`
}

func (s *server) clusterInfo(w http.ResponseWriter, r *http.Request) *apiError {
	if s.cluster == nil {
		return errNotClustered()
	}
	resp := clusterInfoResponse{
		Self:   s.cluster.self,
		Peers:  s.cluster.ring.Peers(),
		Vnodes: s.cluster.ring.VirtualNodes(),
	}
	if name := r.URL.Query().Get("topic"); name != "" {
		if err := store.ValidTopicName(name); err != nil {
			return errf(http.StatusBadRequest, codeInvalidName, "%w", err)
		}
		// Owner is exactly where this shard would route the topic.
		pl := s.resolve(name)
		resp.Topic = &topicPlacement{Name: name, Owner: pl.owner, Local: pl.tp != nil, Epoch: pl.epoch}
		if pl.tp != nil {
			resp.Topic.Epoch = pl.tp.eng().Epoch()
		}
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}
