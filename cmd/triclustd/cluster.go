package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"triclust/internal/cluster"
	"triclust/internal/store"
)

// Cluster mode shards the topic registry across processes. Each shard is
// a full triclustd with the same static peer list; a consistent-hash ring
// (internal/cluster) assigns every topic name an owning shard, so no
// placement table is stored or gossiped. A request arriving at the wrong
// shard is answered with 307 + Location + X-Triclust-Shard (the default,
// keeping shards stateless pass-through-free) or transparently proxied
// (-cluster-proxy).
//
// Ownership is layered, checked in this order:
//
//  1. registry — a topic this shard holds is served here, even when the
//     ring disagrees (an operator move overrode placement);
//  2. tombstone — a topic this shard handed off is forwarded to the
//     recorded target and its writes refused forever at epochs ≤ the
//     hand-off epoch;
//  3. ring — everything else goes to the consistent-hash owner.
//
// Topic moves (POST /v1/cluster/move) drain the topic under its lock,
// compact the journal into a final snapshot, bump the ownership epoch,
// install the snapshot on the target through the ordinary restore
// endpoint (with the hand-off header pinning it there), and only then
// drop the local copy — leaving a persisted tombstone so a restarted
// source shard still refuses the topic's writes.

// handoffHeader marks a snapshot PUT as a hand-off installation: the
// receiving shard accepts the topic regardless of ring placement (the
// move pins it) instead of forwarding the request back.
const handoffHeader = "X-Triclust-Handoff"

// shardHeader names the shard a request was (or should be) routed to; it
// is set on every 307 and on proxied responses.
const shardHeader = "X-Triclust-Shard"

// forwardedHeader carries the comma-separated list of shards a proxied
// request has already traversed. Legitimate chains span two hops (wrong
// shard → ring owner → tombstone target), so a forward is refused only
// when its target is already on the path, or the path has visited as
// many shards as the ring holds — a true loop (e.g. both sides of an
// interrupted hand-off pointing at each other), which must fail fast
// instead of ping-ponging until a timeout. Redirect mode gets the same
// protection from the client's own redirect cap.
const forwardedHeader = "X-Triclust-Forwarded"

// clusterConfig is one shard's view of the cluster: its own identity, the
// ring shared by every shard, and how to forward mis-routed requests.
type clusterConfig struct {
	self  string // this shard's base URL; must be a ring member
	ring  *cluster.Ring
	proxy bool // proxy mis-routed requests instead of 307
	// client issues hand-off PUTs and (in proxy mode) forwarded requests.
	client *http.Client
	// peerTimeout bounds each inter-shard request (proxy hop, hand-off
	// PUT, placement query) with a per-request context; 0 selects
	// defaultPeerTimeout. The client's own 2-minute timeout stays as the
	// outer backstop.
	peerTimeout time.Duration
	// backoff spaces retries of idempotent inter-shard requests; the zero
	// value selects cluster.DefaultBackoff.
	backoff cluster.Backoff
}

// defaultPeerTimeout bounds one inter-shard request when -peer-timeout is
// not set.
const defaultPeerTimeout = 30 * time.Second

// peerAttempts bounds retries of inter-shard requests that are safe to
// re-issue (idempotent GETs; hand-off PUTs disambiguated between tries).
const peerAttempts = 4

func (c *clusterConfig) timeout() time.Duration {
	if c.peerTimeout > 0 {
		return c.peerTimeout
	}
	return defaultPeerTimeout
}

func (c *clusterConfig) retryDelay(attempt int) time.Duration {
	b := c.backoff
	if b.Base <= 0 {
		b = cluster.DefaultBackoff
	}
	return b.Delay(attempt)
}

// newClusterConfig validates and assembles the cluster flags: peers is
// the comma-separated static shard list (base URLs), self must be one of
// them, vnodes the virtual-node count (<=0: default).
func newClusterConfig(self, peers string, vnodes int, proxy bool) (*clusterConfig, error) {
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
	return &clusterConfig{
		self:   self,
		ring:   ring,
		proxy:  proxy,
		client: &http.Client{Timeout: 2 * time.Minute},
	}, nil
}

// routeTopic decides whether this shard serves the request for name,
// reporting true to continue locally. When another shard owns the topic
// the request is forwarded — 307 redirect or transparent proxy — and
// routeTopic reports false with the response written. body carries the
// already-consumed request body for proxying (nil when r.Body is still
// unread). Hand-off PUTs bypass routing: the move pins the topic here.
func (s *server) routeTopic(w http.ResponseWriter, r *http.Request, name string, body []byte) bool {
	if s.cluster == nil || r.Header.Get(handoffHeader) != "" {
		return true
	}
	s.mu.RLock()
	_, local := s.topics[name]
	mv, movedOK := s.moved[name]
	s.mu.RUnlock()
	if local {
		return true
	}
	if movedOK {
		s.forward(w, r, mv.Target, body)
		return false
	}
	if owner := s.cluster.ring.Owner(name); owner != s.cluster.self {
		// With replication on, a request for a down owner's topic goes to
		// the first live replica-set member instead — the shard that has
		// promoted (or is about to promote) the topic's cold replica. When
		// that shard is this one, serve locally: before the promotion lands
		// the registry answers 404 and clients retry, which is strictly
		// better than forwarding into a dead shard's connection timeouts.
		if rp := s.repl; rp != nil && rp.det.Down(owner) {
			if alt, ok := rp.det.FirstLive(rp.candidates(name, owner)); ok {
				if alt == s.cluster.self {
					return true
				}
				s.forward(w, r, alt, body)
				return false
			}
		}
		s.forward(w, r, owner, body)
		return false
	}
	return true
}

// forward hands the request to target: a 307 redirect by default (the
// method and body are preserved by the client re-issuing the request), or
// a transparent proxy in -cluster-proxy mode. Both stamp X-Triclust-Shard
// with the shard that should be asked.
func (s *server) forward(w http.ResponseWriter, r *http.Request, target string, body []byte) {
	var hops []string
	if via := r.Header.Get(forwardedHeader); via != "" {
		hops = strings.Split(via, ",")
	}
	for _, h := range hops {
		if h == target {
			writeError(w, http.StatusBadGateway, codeShardUnreachable,
				fmt.Errorf("routing loop: %s would forward to %s, which already handled the request (path %v)",
					s.cluster.self, target, hops))
			return
		}
	}
	if len(hops) >= len(s.cluster.ring.Peers()) {
		writeError(w, http.StatusBadGateway, codeShardUnreachable,
			fmt.Errorf("routing loop: request traversed %d shards (%v)", len(hops), hops))
		return
	}
	w.Header().Set(shardHeader, target)
	dest := target + r.URL.RequestURI()
	if !s.cluster.proxy {
		http.Redirect(w, r, dest, http.StatusTemporaryRedirect)
		return
	}
	var rdr io.Reader = r.Body
	if body != nil {
		rdr = bytes.NewReader(body)
	}
	// Bound the hop with its own deadline (under the client's context) so
	// a wedged peer fails this request in -peer-timeout, not in the
	// transport's 2-minute backstop. No retry: the proxied request may not
	// be idempotent, and the client owns the retry decision.
	ctx, cancel := context.WithTimeout(r.Context(), s.cluster.timeout())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, r.Method, dest, rdr)
	if err != nil {
		writeError(w, http.StatusBadGateway, codeShardUnreachable, err)
		return
	}
	req.Header.Set(forwardedHeader, strings.Join(append(hops, s.cluster.self), ","))
	// Content-Type selects the request format and Accept the response
	// format on the owning shard, so both must survive the hop — a
	// binary batch proxied without them would decode as JSON and answer
	// in the wrong format. If-None-Match carries the read plane's
	// conditional poll: without it a proxied read never answers 304.
	for _, h := range []string{"Content-Type", "Accept", "If-None-Match"} {
		if v := r.Header.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	resp, err := s.cluster.client.Do(req)
	if err != nil {
		writeError(w, http.StatusBadGateway, codeShardUnreachable,
			fmt.Errorf("proxy to %s: %w", target, err))
		return
	}
	defer resp.Body.Close()
	// Back across the hop goes everything the owner's answer means beyond
	// its body: the validator and cache policy of a read, the retry hint
	// and degraded marker of a storage refusal, the fencing epoch of a 409.
	for _, h := range []string{"Content-Type", "Content-Disposition", shardHeader,
		"ETag", "Cache-Control", "Retry-After", degradedHeader, epochHeader} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set(shardHeader, target)
	w.WriteHeader(resp.StatusCode)
	if _, err := io.Copy(w, resp.Body); err != nil {
		s.logf("proxy %s %s to %s: %v", r.Method, r.URL.Path, target, err)
	}
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
func (s *server) moveTopic(w http.ResponseWriter, r *http.Request) {
	if _, ok := requireMediaType(w, r, mediaTypeJSON); !ok {
		return
	}
	if s.cluster == nil {
		writeError(w, http.StatusConflict, codeNotClustered,
			errors.New("this daemon is not running in cluster mode (-peers/-self)"))
		return
	}
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	var req moveRequest
	if err := decodeStrict(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, codeInvalidRequest, fmt.Errorf("decode: %w", err))
		return
	}
	if err := store.ValidTopicName(req.Topic); err != nil {
		writeError(w, http.StatusBadRequest, codeInvalidName, err)
		return
	}
	req.Target = strings.TrimSuffix(strings.TrimSpace(req.Target), "/")
	if !s.cluster.ring.Contains(req.Target) {
		writeError(w, http.StatusBadRequest, codeUnknownPeer,
			fmt.Errorf("target %q is not a cluster peer", req.Target))
		return
	}

	s.mu.RLock()
	tp, local := s.topics[req.Topic]
	mv, movedOK := s.moved[req.Topic]
	s.mu.RUnlock()
	switch {
	case local:
		// fall through to the live hand-off below
	case movedOK:
		// A tombstone *and* the snapshot still on disk is the signature of
		// a hand-off interrupted between fencing and installation: the
		// topic serves nothing until a move retry completes the install.
		if s.store.HasSnapshot(req.Topic) {
			s.resumeMove(w, req, mv)
			return
		}
		// The topic moved on and lives elsewhere now; route the move to
		// its current holder so "POST to any shard" keeps holding.
		s.forward(w, r, mv.Target, body)
		return
	default:
		if owner := s.cluster.ring.Owner(req.Topic); owner != s.cluster.self {
			s.forward(w, r, owner, body)
			return
		}
		writeError(w, http.StatusNotFound, codeTopicNotFound, fmt.Errorf("unknown topic %q", req.Topic))
		return
	}
	if req.Target == s.cluster.self {
		writeError(w, http.StatusBadRequest, codeInvalidRequest,
			fmt.Errorf("topic %q already lives on %s", req.Topic, s.cluster.self))
		return
	}

	resp, status, code, err := s.performHandoff(tp, req.Target)
	if err != nil {
		writeError(w, status, code, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// performHandoff executes the drain → compact → export → install → drop
// sequence moving tp to target. It is the shared spine of the operator
// move endpoint and the automatic rebalancer; the caller must not hold
// tp.mu. On failure it returns the HTTP status and stable code the
// operator path responds with.
func (s *server) performHandoff(tp *topic, target string) (moveResponse, int, string, error) {
	// Holding the topic lock for the whole hand-off *is* the drain: any
	// in-flight batch finished before we got the lock, and every batch
	// that arrives while we hold it blocks, then finds the tombstone and
	// follows it to the target.
	tp.mu.Lock()
	defer tp.mu.Unlock()
	if tp.deleted {
		return moveResponse{}, http.StatusNotFound, codeTopicNotFound, fmt.Errorf("topic %q was deleted", tp.name)
	}
	// Final compaction: fold the journal tail into one fresh snapshot so
	// the exported state is the complete, settled history.
	ok, err := s.saveIfCurrent(tp)
	if err != nil {
		return moveResponse{}, http.StatusInternalServerError, codeStorage,
			fmt.Errorf("final compaction before hand-off: %w", err)
	}
	if !ok {
		return moveResponse{}, http.StatusNotFound, codeTopicNotFound, fmt.Errorf("topic %q was deleted", tp.name)
	}

	oldEpoch := tp.eng().Epoch()
	newEpoch := oldEpoch + 1
	tp.eng().SetEpoch(newEpoch)
	var snap bytes.Buffer
	if err := tp.eng().Snapshot(&snap); err != nil {
		tp.eng().SetEpoch(oldEpoch)
		return moveResponse{}, http.StatusInternalServerError, codeStorage,
			fmt.Errorf("export snapshot: %w", err)
	}
	ts := cluster.Tombstone{Epoch: newEpoch, Target: target}
	if err := s.setMoved(tp.name, ts); err != nil {
		s.clearMoved(tp.name)
		tp.eng().SetEpoch(oldEpoch)
		return moveResponse{}, http.StatusInternalServerError, codeStorage,
			fmt.Errorf("persist hand-off intent: %w", err)
	}
	if definitive, err := s.installOn(target, tp.name, snap.Bytes(), newEpoch); err != nil {
		// A definitive refusal (the target answered non-201) installed
		// nothing: un-fence and keep serving. A transport error is
		// *ambiguous* — the PUT may have been applied on the target — so
		// un-fencing could let both shards accept writes and fork the
		// topic. With a data directory the safe resolution exists: keep
		// the fence, park the topic in the interrupted-hand-off state
		// (tombstone + on-disk snapshot) and let a move retry resume it.
		// Without one there is nothing to resume from, so in-memory
		// clusters choose availability and un-fence (the trade-off of
		// running without -data-dir).
		if definitive || s.store == nil {
			s.clearMoved(tp.name)
			tp.eng().SetEpoch(oldEpoch)
			return moveResponse{}, http.StatusBadGateway, codeMoveFailed,
				fmt.Errorf("install %q on %s: %w", tp.name, target, err)
		}
		s.retire(tp)
		s.logf("hand-off of %q to %s is ambiguous (%v); fence kept, retry the move to resume", tp.name, target, err)
		return moveResponse{}, http.StatusBadGateway, codeMoveFailed,
			fmt.Errorf("install %q on %s did not complete: %v — the topic is fenced; retry the move to resume the hand-off",
				tp.name, target, err)
	}

	// The target owns the topic now. Drop the local copy: registry entry,
	// journal handle, snapshot and journal files — the tombstone stays.
	batches := tp.eng().Batches()
	s.retire(tp)
	s.store.RemoveStale(tp.name, s.diskOf)
	if s.repl != nil {
		// The new primary re-seeds its own followers; this shard's
		// shipping state for the topic is obsolete.
		s.repl.dropTopicState(tp.name)
	}
	s.logf("moved topic %q to %s at epoch %d (%d batches)", tp.name, target, newEpoch, batches)
	return moveResponse{
		Topic: tp.name, Source: s.cluster.self, Target: target,
		Epoch: newEpoch, Batches: batches,
	}, 0, "", nil
}

// installOn PUTs a snapshot onto the target shard through the ordinary
// restore endpoint, marked as a hand-off so the target pins the topic.
// definitive reports whether the outcome is known: true on success or
// when the target answered with a refusal (nothing was installed), false
// when every attempt ended in ambiguity — the PUT may or may not have
// been applied, and the caller must not assume either.
//
// A hand-off PUT is not blindly idempotent: if an earlier attempt landed
// but its response was lost, the retry is refused with topic_exists —
// which must read as success, not refusal. So between attempts the
// target's placement is queried at the hand-off epoch: already-installed
// resolves to success, reachable-but-absent makes a transport failure
// safe to retry (nothing landed), and unreachable stays ambiguous.
func (s *server) installOn(target, name string, snapshot []byte, epoch uint64) (definitive bool, err error) {
	var last error
	for attempt := 0; attempt < peerAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(s.cluster.retryDelay(attempt - 1))
		}
		resp, rerr := s.putSnapshot(target, name, snapshot)
		if rerr != nil {
			last = rerr
			has, reachable := s.targetTopicState(target, name, epoch)
			if has {
				return true, nil
			}
			if !reachable {
				return false, rerr // truly ambiguous: park the hand-off
			}
			continue // target answered and lacks the topic: retry is safe
		}
		if resp.status == http.StatusCreated {
			return true, nil
		}
		if resp.code == codeTopicExists {
			if has, _ := s.targetTopicState(target, name, epoch); has {
				return true, nil
			}
		}
		// Any other answer is the target's considered refusal (epoch
		// fence, quarantine, invalid snapshot); retrying cannot change it.
		return true, fmt.Errorf("target answered %d (%s: %s)", resp.status, resp.code, resp.message)
	}
	return false, fmt.Errorf("gave up after %d attempts: %w", peerAttempts, last)
}

// installResponse is one hand-off PUT's decoded outcome.
type installResponse struct {
	status  int
	code    string
	message string
}

func (s *server) putSnapshot(target, name string, snapshot []byte) (*installResponse, error) {
	ctx, cancel := context.WithTimeout(context.Background(), s.cluster.timeout())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPut,
		target+"/v1/topics/"+name, bytes.NewReader(snapshot))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set(handoffHeader, "1")
	resp, err := s.cluster.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := &installResponse{status: resp.StatusCode}
	if resp.StatusCode != http.StatusCreated {
		var eb errorBody
		if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&eb); err == nil {
			out.code, out.message = eb.Error.Code, eb.Error.Message
		}
	}
	return out, nil
}

// resumeMove completes an interrupted hand-off: the tombstone recorded
// the fencing epoch, the snapshot is still on disk, so re-export it at
// that epoch and install it on the requested target. Retrying against a
// different target than first recorded is allowed (the first target may
// be the shard that died) and re-points the tombstone.
func (s *server) resumeMove(w http.ResponseWriter, req moveRequest, mv cluster.Tombstone) {
	if req.Target == s.cluster.self {
		writeError(w, http.StatusBadRequest, codeInvalidRequest,
			errors.New("cannot resume a hand-off onto the fencing shard"))
		return
	}
	// A real interruption fell between the final compaction and the
	// install, so the journal should be empty — but any tail it does hold
	// is replayed (same verified path as startup recovery) rather than
	// silently dropping acked batches from an unexpected state.
	rt, err := s.store.Load(req.Topic)
	if err != nil {
		writeError(w, http.StatusInternalServerError, codeStorage,
			fmt.Errorf("reload pending snapshot: %w", err))
		return
	}
	tp := rt.Topic
	// The on-disk snapshot predates the epoch bump (it was the final
	// compaction); re-stamp it with the fencing epoch before installing.
	tp.SetEpoch(mv.Epoch)
	var snap bytes.Buffer
	if err := tp.Snapshot(&snap); err != nil {
		writeError(w, http.StatusInternalServerError, codeStorage, err)
		return
	}
	if req.Target != mv.Target {
		mv = cluster.Tombstone{Epoch: mv.Epoch, Target: req.Target}
		if err := s.setMoved(req.Topic, mv); err != nil {
			writeError(w, http.StatusInternalServerError, codeStorage, err)
			return
		}
	}
	if _, err := s.installOn(req.Target, req.Topic, snap.Bytes(), mv.Epoch); err != nil {
		// If the interrupted hand-off's original PUT did land on the
		// target, the retry is refused with topic_exists; ask the target
		// whether it already serves the topic at the fencing epoch and, if
		// so, just finish the local drop.
		if !s.targetHasTopic(req.Target, req.Topic, mv.Epoch) {
			writeError(w, http.StatusBadGateway, codeMoveFailed,
				fmt.Errorf("install %q on %s: %w", req.Topic, req.Target, err))
			return
		}
		s.logf("hand-off of %q to %s had already completed; finishing the local drop", req.Topic, req.Target)
	}
	// The leftover files go unless the topic has meanwhile come back and
	// saved here — then they are its own.
	s.store.RemoveStale(req.Topic, s.diskOf)
	s.logf("resumed interrupted hand-off of %q to %s at epoch %d", req.Topic, req.Target, mv.Epoch)
	writeJSON(w, http.StatusOK, moveResponse{
		Topic: req.Topic, Source: s.cluster.self, Target: req.Target,
		Epoch: mv.Epoch, Batches: tp.Batches(), Resumed: true,
	})
}

// targetHasTopic asks target whether it serves name locally at an epoch
// at least the given one — the signature of a hand-off whose installation
// succeeded but whose acknowledgement was lost.
func (s *server) targetHasTopic(target, name string, epoch uint64) bool {
	has, _ := s.targetTopicState(target, name, epoch)
	return has
}

// targetTopicState additionally reports whether the target answered at
// all: reachable distinguishes "asked, and the topic is not there" from
// "could not ask" — the difference between a retryable and an ambiguous
// hand-off failure. The placement query is an idempotent GET, so it is
// retried with backoff under per-request deadlines.
func (s *server) targetTopicState(target, name string, epoch uint64) (has, reachable bool) {
	for attempt := 0; attempt < peerAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(s.cluster.retryDelay(attempt - 1))
		}
		info, err := s.queryPlacement(target, name)
		if err != nil {
			continue
		}
		return info.Topic != nil && info.Topic.Local && info.Topic.Epoch >= epoch, true
	}
	return false, false
}

func (s *server) queryPlacement(target, name string) (*clusterInfoResponse, error) {
	ctx, cancel := context.WithTimeout(context.Background(), s.cluster.timeout())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		target+"/v1/cluster/info?topic="+name, nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.cluster.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("placement query answered %d", resp.StatusCode)
	}
	var info clusterInfoResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&info); err != nil {
		return nil, err
	}
	return &info, nil
}

// clusterInfoResponse describes this shard's placement view; with
// ?topic=name it also resolves where that topic should be asked for.
type clusterInfoResponse struct {
	Self   string          `json:"self"`
	Peers  []string        `json:"peers"`
	Vnodes int             `json:"vnodes"`
	Proxy  bool            `json:"proxy"`
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

func (s *server) clusterInfo(w http.ResponseWriter, r *http.Request) {
	if s.cluster == nil {
		writeError(w, http.StatusConflict, codeNotClustered,
			errors.New("this daemon is not running in cluster mode (-peers/-self)"))
		return
	}
	resp := clusterInfoResponse{
		Self:   s.cluster.self,
		Peers:  s.cluster.ring.Peers(),
		Vnodes: s.cluster.ring.VirtualNodes(),
		Proxy:  s.cluster.proxy,
	}
	if name := r.URL.Query().Get("topic"); name != "" {
		if err := store.ValidTopicName(name); err != nil {
			writeError(w, http.StatusBadRequest, codeInvalidName, err)
			return
		}
		pl := &topicPlacement{Name: name}
		s.mu.RLock()
		tp, local := s.topics[name]
		mv, movedOK := s.moved[name]
		s.mu.RUnlock()
		switch {
		case local:
			pl.Owner, pl.Local, pl.Epoch = s.cluster.self, true, tp.eng().Epoch()
		case movedOK:
			pl.Owner, pl.Epoch = mv.Target, mv.Epoch
		default:
			pl.Owner = s.cluster.ring.Owner(name)
		}
		resp.Topic = pl
	}
	writeJSON(w, http.StatusOK, resp)
}
