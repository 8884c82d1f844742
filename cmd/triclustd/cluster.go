package main

import (
	"bytes"
	"fmt"
	"maps"
	"net/http"
	"net/url"
	"slices"
	"strings"

	"triclust"
	"triclust/internal/cluster"
	"triclust/internal/store"
)

// Cluster mode shards the topic registry across processes. Each shard is
// a full triclustd with the same static peer list. Where a name lives, and
// at which epochs its state may be written, is internal/cluster's: the
// placement table (server.table) routes it — served here, handed off, ring
// owner, elected successor — and applies every epoch fence, and
// cluster.Handoff is the one move protocol. The daemon keeps the HTTP side:
// the 307 adapters (routeTopic, refuse, forward), the move and placement
// handlers, the topic lock that drains a topic before its hand-off, and
// peerClient, the Transport that carries the hand-off's PUT and its
// placement queries. A shard relays no client's request.

// handoffHeader marks a snapshot PUT as a hand-off installation: the
// receiving shard accepts the topic regardless of ring placement (the
// move pins it) instead of redirecting the request back.
const handoffHeader = "X-Triclust-Handoff"

// shardHeader names the shard a request should be routed to; it is set on
// every 307 and on fencing refusals.
const shardHeader = "X-Triclust-Shard"

// newMembership validates and assembles the cluster flags: peers is the
// comma-separated static shard list (base URLs), self must be one of them,
// vnodes the virtual-node count (<=0: default).
func newMembership(self, peers string, vnodes int) (*cluster.Membership, error) {
	var list []string
	for _, p := range strings.Split(peers, ",") {
		if p = strings.TrimSuffix(strings.TrimSpace(p), "/"); p == "" {
			continue
		} else if u, err := url.Parse(p); err != nil || u.Scheme == "" || u.Host == "" {
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
	return &cluster.Membership{Self: self, Ring: ring}, nil
}

// route is the table's answer for name beside the topic the registry holds
// under it, read under the registry lock so the two agree.
func (s *server) route(name string) (*topic, cluster.Route) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	tp := s.topics[name]
	return tp, s.table.Route(name, tp != nil)
}

// served returns the registered topics.
func (s *server) served() []*topic {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return slices.Collect(maps.Values(s.topics))
}

// routeTopic decides whether this shard serves the request for name,
// reporting true (and the topic, if registered) to continue locally. When
// another shard owns the topic the request is redirected there, and while
// this shard holds it parked the request is refused retryably; either way
// routeTopic reports false with the response written. Hand-off PUTs bypass
// routing: the move pins the topic here.
func (s *server) routeTopic(w http.ResponseWriter, r *http.Request, name string) (*topic, bool) {
	tp, rt := s.route(name)
	switch {
	case rt.Here || r.Header.Get(handoffHeader) != "":
		return tp, true
	case rt.Parked:
		s.fail(w, errParked(name))
	default:
		forward(w, r, rt.Owner)
	}
	return nil, false
}

// refuse hands e back to be the answer — unless the topic merely moved:
// a request that found it, then waited out a hand-off on the topic lock,
// sees a retired topic whose tombstone says where it lives now, and is
// redirected there (nil: response written) instead of told 404, or told to
// retry while that hand-off has no verdict.
func (s *server) refuse(w http.ResponseWriter, r *http.Request, name string, e *apiError) *apiError {
	if e.code != codeTopicNotFound {
		return e
	}
	switch _, rt := s.route(name); {
	case rt.Parked:
		return errParked(name)
	case rt.Moved && !rt.Here:
		forward(w, r, rt.Owner)
		return nil
	}
	return e
}

// errParked refuses a request for a topic this shard holds parked: its
// hand-off has no verdict, so the target may not hold it yet.
func errParked(name string) *apiError {
	return errf(http.StatusServiceUnavailable, codeHandoffPending,
		"the hand-off of topic %q has no verdict yet; retry after it resumes", name)
}

// forward answers 307 with the same request URI on target, naming target
// in X-Triclust-Shard. The client re-sends the method and body there; a
// chain of hops (wrong shard → ring owner → tombstone target) ends, since a
// shard follows its own tombstone only once the hand-off is confirmed
// (cluster.Route).
func forward(w http.ResponseWriter, r *http.Request, target string) {
	w.Header().Set(shardHeader, target)
	http.Redirect(w, r, target+r.URL.RequestURI(), http.StatusTemporaryRedirect)
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
// hands it off — live, or resuming a hand-off interrupted after its fence.
func (s *server) moveTopic(w http.ResponseWriter, r *http.Request) *apiError {
	if _, e := requireMediaType(r, mediaTypeJSON); e != nil {
		return e
	}
	if s.table.Ring == nil {
		return errNotClustered()
	}
	var req moveRequest
	if e := readJSON(r, &req); e != nil {
		return e
	}
	if err := store.ValidTopicName(req.Topic); err != nil {
		return errf(http.StatusBadRequest, codeInvalidName, "%w", err)
	}
	req.Target = strings.TrimSuffix(strings.TrimSpace(req.Target), "/")
	if !s.table.Ring.Contains(req.Target) {
		return errf(http.StatusBadRequest, codeUnknownPeer, "target %q is not a cluster peer", req.Target)
	}

	tp, where := s.route(req.Topic)
	parked := tp == nil && where.Moved && s.store.HasSnapshot(req.Topic)
	var resp moveResponse
	var e *apiError
	switch {
	case tp == nil && !parked && !where.Here:
		// The topic moved on (or never lived here); route the move to its
		// current holder so "POST to any shard" keeps holding.
		forward(w, r, where.Owner)
		return nil
	case tp == nil && !parked:
		return errf(http.StatusNotFound, codeTopicNotFound, "unknown topic %q", req.Topic)
	case req.Target == s.table.Self:
		return errf(http.StatusBadRequest, codeInvalidRequest, "topic %q already lives on %s", req.Topic, s.table.Self)
	case parked:
		resp, e = s.resume(req.Topic, req.Target)
	default:
		resp, e = s.performHandoff(tp, req.Target)
	}
	if e != nil {
		return s.refuse(w, r, req.Topic, e)
	}
	if resp.Target != req.Target {
		// The resumed hand-off had landed on the recorded target: the move
		// goes on from there.
		forward(w, r, resp.Target)
		return nil
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}

func errNotClustered() *apiError {
	return errf(http.StatusConflict, codeNotClustered, "this daemon is not running in cluster mode (-peers/-self)")
}

// performHandoff is the live move of tp to target, the operator's and the
// rebalancer's: drain, compact, bump the epoch, hand off. The caller must
// not hold tp.mu.
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
	if err := s.saveIfCurrent(tp, tp.eng); err != nil {
		return moveResponse{}, errf(http.StatusInternalServerError, codeStorage, "final compaction before hand-off: %w", err)
	}
	eng, epoch := tp.eng, tp.eng.Epoch()
	eng.SetEpoch(epoch + 1)
	resp, e := s.handOff(tp.name, tp, eng, target)
	if e != nil {
		eng.SetEpoch(epoch)
	}
	return resp, e
}

// resume drives the interrupted hand-off of name to target, or (target
// empty) to its recorded one. A tombstone *and* the snapshot still on disk
// is the signature of a hand-off interrupted between fencing and removing
// the files — an ambiguous outcome, or a crash; one without a verdict is
// parked and serves nothing until a resume reaches one. Its state is
// reloaded from disk, any journal tail replayed (the verified startup
// path), at the fencing epoch. A target that refuses it gives the topic
// back: the fence goes (cluster.Handoff) and this shard serves it again, as
// after a refused live move. One resume of a name runs at a time; a second
// is refused retryably, and one that finds the hand-off finished meanwhile
// answers topic_not_found, which refuse turns into a redirect.
func (s *server) resume(name, target string) (moveResponse, *apiError) {
	if _, busy := s.resuming.LoadOrStore(name, true); busy {
		return moveResponse{}, errParked(name)
	}
	defer s.resuming.Delete(name)
	_, where := s.route(name)
	if !where.Moved || !s.store.HasSnapshot(name) {
		return moveResponse{}, errf(http.StatusNotFound, codeTopicNotFound, "topic %q has no interrupted hand-off", name)
	}
	if target == "" {
		target = where.Owner
	}
	rt, err := s.store.Load(name)
	if err != nil {
		return moveResponse{}, errf(http.StatusInternalServerError, codeStorage, "reload pending snapshot: %w", err)
	}
	epoch := rt.Topic.Epoch()
	rt.Topic.SetEpoch(where.Epoch)
	resp, e := s.handOff(name, nil, rt.Topic, target)
	if _, moved := s.table.Tombstone(name); !moved {
		rt.Topic.SetEpoch(epoch)
		s.takeBack(name, rt)
	}
	return resp, e
}

// takeBack serves rt, the state of name's refused hand-off, again as the
// start-up scan would have: registered at the epoch it had before the move,
// its journal reopened.
func (s *server) takeBack(name string, rt *store.Restored) {
	tp := s.newTopic(name, rt.Topic, true)
	tp.mu.Lock()
	defer tp.mu.Unlock()
	if ok, err := s.table.Register(name, rt.Topic.Epoch(), func() bool { return s.claim(tp) }); !ok {
		s.logf("take back topic %q: the name is taken (%v)", name, err)
		return
	}
	s.openJournal(tp, rt)
	s.logf("took back topic %q (%d batches): its hand-off was refused", name, rt.Topic.Batches())
}

// resumeLoop drives each parked hand-off to a verdict, every
// -probe-interval: cluster.Handoff retries the recorded move, which asks
// the target, installs again when it is reachable and holds nothing, and
// keeps the fence while it cannot be asked.
func (s *server) resumeLoop() {
	for s.sleep(s.ctx, s.probeEvery) {
		for _, name := range s.table.Parked() {
			if s.ctx.Err() != nil {
				return
			}
			if _, e := s.resume(name, ""); e != nil {
				s.logf("resume the hand-off of %q: %v", name, e)
			}
		}
	}
}

// handOff is the daemon's one move: eng, at the epoch it carries — tp's,
// drained under its lock, or (tp nil) a parked hand-off's, reloaded from
// disk — goes to target through cluster.Handoff over the peer client. tp is
// retired once it left, or once its hand-off is parked for a retry to
// resume (tombstone + snapshot on disk); the files go once it is installed.
func (s *server) handOff(name string, tp *topic, eng *triclust.Topic, target string) (moveResponse, *apiError) {
	var snap bytes.Buffer
	if err := eng.Snapshot(&snap); err != nil {
		return moveResponse{}, errf(http.StatusInternalServerError, codeStorage, "export snapshot: %w", err)
	}
	x := cluster.Transfer{Topic: name, Target: target, Epoch: eng.Epoch(), Snapshot: snap.Bytes(), Resumable: s.store != nil}
	out, at, err := cluster.Handoff(s.ctx, s.table, s.peers, s.peers.retry, x)
	parked := out == cluster.Ambiguous && x.Resumable
	if tp != nil && (out == cluster.Installed || parked) {
		s.retire(tp)
	}
	switch {
	case out == cluster.Installed:
		s.store.RemoveStale(name, s.diskOf)
		s.logf("handed topic %q off to %s at epoch %d (%d batches)", name, at, x.Epoch, eng.Batches())
		return moveResponse{Topic: name, Source: s.table.Self, Target: at, Epoch: x.Epoch, Batches: eng.Batches(), Resumed: tp == nil}, nil
	case out == cluster.Unfenced:
		return moveResponse{}, errf(http.StatusInternalServerError, codeStorage, "persist hand-off intent: %w", err)
	case parked:
		s.logf("hand-off of %q to %s is ambiguous (%v); fence kept until it resumes", name, target, err)
		err = fmt.Errorf("%w — the topic is fenced until the hand-off resumes", err)
	}
	return moveResponse{}, errf(http.StatusBadGateway, codeMoveFailed, "install %q on %s: %w", name, target, err)
}

// clusterView is this shard's membership, as healthz and cluster/info
// report it.
type clusterView struct {
	Self   string   `json:"self"`
	Peers  []string `json:"peers"`
	Vnodes int      `json:"vnodes"`
}

func (s *server) clusterView() clusterView {
	return clusterView{s.table.Self, s.table.Ring.Peers(), s.table.Ring.VirtualNodes()}
}

// clusterInfoResponse describes this shard's placement view; with
// ?topic=name it also resolves where that topic should be asked for.
type clusterInfoResponse struct {
	clusterView
	Topic *topicPlacement `json:"topic,omitempty"`
}

type topicPlacement struct {
	Name string `json:"name"`
	// Owner is where this shard would route the topic: itself, the
	// tombstone target, or the ring owner.
	Owner string `json:"owner"`
	// Local reports the topic is registered on this shard, or held here
	// parked: a hand-off without a verdict keeps its state on disk at the
	// tombstone's epoch.
	Local bool `json:"local"`
	// Epoch is the hand-off epoch when a tombstone exists, else the local
	// topic's epoch (0 when neither applies).
	Epoch uint64 `json:"epoch"`
}

func (s *server) clusterInfo(w http.ResponseWriter, r *http.Request) *apiError {
	if s.table.Ring == nil {
		return errNotClustered()
	}
	resp := clusterInfoResponse{clusterView: s.clusterView()}
	if name := r.URL.Query().Get("topic"); name != "" {
		if err := store.ValidTopicName(name); err != nil {
			return errf(http.StatusBadRequest, codeInvalidName, "%w", err)
		}
		// Owner is exactly where this shard would route the topic.
		tp, rt := s.route(name)
		resp.Topic = &topicPlacement{Name: name, Owner: rt.Owner, Local: tp != nil || rt.Parked, Epoch: rt.Epoch}
		if tp != nil {
			resp.Topic.Epoch = tp.eng.Epoch()
		}
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}
