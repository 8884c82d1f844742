package main

import (
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Per-topic storage states. A topic leaves stOK when its durable writes
// keep failing (stDegraded: read-only, reads served from the last
// durable state via the RCU view) and falls to stParked when even the
// rollback reload failed — the daemon then holds NO state disk vouches
// for, so the topic serves nothing until a probe-driven reload succeeds.
//
//	stOK ──(DegradeAfter consecutive failures, ENOSPC, or no journal)──▶ stDegraded
//	stOK/stDegraded ──(rollback reload fails)──▶ stParked
//	stDegraded ──(probe ok + compaction save ok)──▶ stOK
//	stParked ──(probe ok + reload ok + save ok)──▶ stOK
//
// Past ShardAfter degraded/parked topics the whole shard turns
// read-only: every write answers 503 storage_readonly, because a disk
// failing across topics is a disk about to fail the next topic too.
const (
	stOK int32 = iota
	stDegraded
	stParked
)

// storageOptions tune the degraded-mode state machine.
type storageOptions struct {
	// DegradeAfter is how many consecutive durable-write failures flip a
	// topic into the read-only degraded state (ENOSPC and a lost journal
	// flip immediately: neither is a transient).
	DegradeAfter int
	// ShardAfter is how many degraded/parked topics flip the whole shard
	// read-only.
	ShardAfter int
	// ProbeInterval is the write-probe cadence while anything is
	// degraded, and the Retry-After hint handed to refused writers.
	ProbeInterval time.Duration
}

func (o storageOptions) withDefaults() storageOptions {
	if o.DegradeAfter <= 0 {
		o.DegradeAfter = 3
	}
	if o.ShardAfter <= 0 {
		o.ShardAfter = 2
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 5 * time.Second
	}
	return o
}

// storageMonitor runs the disk-degraded state machine: it counts
// durable-write failures per topic, degrades topics (and past a
// threshold the shard) into read-only, probes the data directory with
// real write+fsync cycles (the store's Probe) while anything is degraded,
// and recovers topics — reload from disk if parked, then a proving
// compaction save — once writes succeed again. One monitor per server; nil
// when the server has no store (nothing durable can fail).
type storageMonitor struct {
	s    *server
	opts storageOptions

	failures   atomic.Uint64
	recoveries atomic.Uint64
	probes     atomic.Uint64
	lastErr    atomic.Pointer[string]
	lastProbe  atomic.Pointer[string]
	// readonly is the shard-level switch: set when ≥ ShardAfter topics
	// are degraded/parked, cleared as recoveries bring the count back
	// down.
	readonly atomic.Bool

	mu      sync.Mutex
	running bool
	closed  bool
	stop    chan struct{}
}

func newStorageMonitor(s *server, opts storageOptions) *storageMonitor {
	return &storageMonitor{s: s, opts: opts.withDefaults()}
}

// close stops the probe goroutine if one is running.
func (m *storageMonitor) close() {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.closed = true
	if m.running {
		close(m.stop)
		m.running = false
	}
	m.mu.Unlock()
}

// retrySeconds is the Retry-After value for refused writes: the probe
// cadence, since that is how often recovery can happen.
func (m *storageMonitor) retrySeconds() string {
	return strconv.Itoa(int(max(1, int64(m.opts.ProbeInterval/time.Second))))
}

// noteSuccess resets a topic's consecutive-failure count after any
// successful durable write. One atomic load on the hot path.
func (m *storageMonitor) noteSuccess(tp *topic) {
	if m != nil && tp.storFails.Load() != 0 {
		tp.storFails.Store(0)
	}
}

// noteFailure records a failed durable write on tp, degrading the topic
// once failures look persistent — or at once if tp lost its journal, which
// only the write probe's compaction re-creates. Callers hold tp.mu.
func (m *storageMonitor) noteFailure(tp *topic, err error) {
	if m == nil {
		return
	}
	m.failures.Add(1)
	msg := err.Error()
	m.lastErr.Store(&msg)
	n := int(tp.storFails.Add(1))
	if n >= m.opts.DegradeAfter || errors.Is(err, syscall.ENOSPC) || !tp.disk.HasJournal() {
		if tp.storage.CompareAndSwap(stOK, stDegraded) {
			m.s.logf("topic %q storage-degraded after %d consecutive durable-write failures: %v", tp.name, n, err)
		}
		m.recount()
		m.ensureProber()
	}
}

// degradedHeader marks read responses served from the last durable
// state while the topic's storage is degraded. A header (not a body
// change) so ETag revalidation and the memoized /features body stay
// byte-identical.
const degradedHeader = "X-Triclust-Degraded"

// retryAfter stamps the Retry-After hint on storage-refusal responses:
// the probe cadence, i.e. the soonest recovery could have happened.
func (s *server) retryAfter(w http.ResponseWriter, code string) {
	if s.storage != nil && (code == codeStorageDegraded || code == codeStorageReadonly) {
		w.Header().Set("Retry-After", s.storage.retrySeconds())
	}
}

// readGate refuses reads of a parked topic — parked means the daemon
// holds no state disk vouches for — and stamps the degraded marker
// header on reads of a degraded one (those reads stay correct: the RCU
// view is the last durable state). Reports whether the read may
// proceed; on refusal the response is already written.
func (s *server) readGate(w http.ResponseWriter, tp *topic) bool {
	if s.storage == nil {
		return true
	}
	switch tp.storage.Load() {
	case stParked:
		s.retryAfter(w, codeStorageDegraded)
		writeError(w, http.StatusServiceUnavailable, codeStorageDegraded,
			fmt.Errorf("topic %q is parked after a storage failure: no trustworthy state to serve", tp.name))
		return false
	case stDegraded:
		w.Header().Set(degradedHeader, "storage")
	}
	return true
}

// park drops tp to the parked state: the rollback reload after a failed
// durable write itself failed, so the in-memory engine is ahead of
// anything disk vouches for and must not be served as current — reads
// and writes both refuse until a probe-driven reload succeeds. Callers
// hold tp.mu.
func (m *storageMonitor) park(tp *topic, err error) {
	if m == nil {
		return
	}
	tp.storage.Store(stParked)
	msg := err.Error()
	m.lastErr.Store(&msg)
	m.s.logf("topic %q parked: durable state unreadable after a storage failure (%v); refusing reads and writes until recovery re-reads disk", tp.name, err)
	m.recount()
	m.ensureProber()
}

// writeGate is the fail-fast check at the top of every write path:
// non-"" code means refuse with that status/code (and a Retry-After in
// the HTTP layer).
func (m *storageMonitor) writeGate(tp *topic) (int, string, error) {
	if status, code, err := m.shardGate(); code != "" {
		return status, code, err
	}
	switch tp.storage.Load() {
	case stParked:
		return http.StatusServiceUnavailable, codeStorageDegraded,
			fmt.Errorf("topic %q is parked after a storage failure (durable state unreadable); retry after recovery", tp.name)
	case stDegraded:
		return http.StatusServiceUnavailable, codeStorageDegraded,
			fmt.Errorf("topic %q is read-only: persistent storage failures; retry after recovery", tp.name)
	}
	return 0, "", nil
}

// shardGate is writeGate for paths that create new durable state before
// any topic exists (create, restore): only the shard-level switch
// applies.
func (m *storageMonitor) shardGate() (int, string, error) {
	if m != nil && m.readonly.Load() {
		return http.StatusServiceUnavailable, codeStorageReadonly,
			fmt.Errorf("shard is read-only: %d+ topics have degraded storage; retry after recovery", m.opts.ShardAfter)
	}
	return 0, "", nil
}

// recount recomputes the shard-level read-only switch from the current
// per-topic states and returns how many topics are not stOK. Safe under
// tp.mu (lock order tp.mu → s.mu).
func (m *storageMonitor) recount() int {
	n := 0
	m.s.mu.RLock()
	for _, tp := range m.s.topics {
		if tp.storage.Load() != stOK {
			n++
		}
	}
	m.s.mu.RUnlock()
	was := m.readonly.Swap(n >= m.opts.ShardAfter)
	now := n >= m.opts.ShardAfter
	if now && !was {
		m.s.logf("shard read-only: %d topics with degraded storage (threshold %d)", n, m.opts.ShardAfter)
	} else if was && !now {
		m.s.logf("shard writable again: %d topics with degraded storage (threshold %d)", n, m.opts.ShardAfter)
	}
	return n
}

// ensureProber starts the probe loop if it is not already running. The
// loop stops itself once every topic is back to stOK, so servers that
// never degrade never run it.
func (m *storageMonitor) ensureProber() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.running || m.closed {
		return
	}
	m.running = true
	m.stop = make(chan struct{})
	go m.probeLoop(m.stop)
}

func (m *storageMonitor) probeLoop(stop chan struct{}) {
	t := time.NewTicker(m.opts.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		m.probes.Add(1)
		if err := m.s.store.Probe(); err != nil {
			msg := "probe failed: " + err.Error()
			m.lastProbe.Store(&msg)
			continue
		}
		ok := "ok"
		m.lastProbe.Store(&ok)
		// Writes work again: walk the degraded topics and prove each one
		// back to health with a real reload + compaction save.
		m.s.mu.RLock()
		pending := make([]*topic, 0, len(m.s.topics))
		for _, tp := range m.s.topics {
			if tp.storage.Load() != stOK {
				pending = append(pending, tp)
			}
		}
		m.s.mu.RUnlock()
		for _, tp := range pending {
			m.recoverTopic(tp)
		}
		// Nothing left to watch: stop until the next degrade.
		if m.recount() == 0 {
			m.mu.Lock()
			if m.stop == stop {
				m.running = false
			}
			m.mu.Unlock()
			return
		}
	}
}

// recoverTopic brings one degraded/parked topic back: a parked topic is
// first rebuilt from disk (the only trustworthy source once the
// in-memory state ran ahead of a failed rollback), then either kind
// proves writability with a compaction save. Failure leaves the state
// unchanged for the next probe round.
func (m *storageMonitor) recoverTopic(tp *topic) {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	state := tp.storage.Load()
	if state == stOK || tp.deleted {
		tp.storage.Store(stOK)
		return
	}
	if state == stParked {
		if err := m.s.reloadFromDisk(tp); err != nil {
			m.s.logf("recovery reload %q: %v (still parked)", tp.name, err)
			return
		}
	}
	// The proving write: a fresh snapshot + journal restart. This also
	// re-bases the followers (replShip below), so replication converges
	// from the recovered durable state.
	ok, err := m.s.saveIfCurrent(tp)
	if err != nil {
		m.s.logf("recovery save %q: %v (still degraded)", tp.name, err)
		return
	}
	tp.storage.Store(stOK)
	tp.storFails.Store(0)
	m.recoveries.Add(1)
	if !ok {
		return // deleted concurrently; nothing to ship
	}
	if _, _, err := m.s.replShip(tp, nil, 0, 0, false); err != nil {
		m.s.logf("recovery re-ship %q: %v (resync queued)", tp.name, err)
	}
	m.s.logf("topic %q storage recovered", tp.name)
}

// storageHealth is the healthz "storage" section: the degraded-mode
// state machine made visible.
type storageHealth struct {
	// State is "ok", "degraded" (some topics read-only) or "readonly"
	// (the shard-level switch tripped).
	State string `json:"state"`
	// Degraded and Parked list the topics in each non-OK state.
	Degraded []string `json:"degraded_topics,omitempty"`
	Parked   []string `json:"parked_topics,omitempty"`
	// Failures counts durable-write failures since startup; Recoveries
	// counts topics proven back to health; Probes counts write probes.
	Failures   uint64 `json:"failures"`
	Recoveries uint64 `json:"recoveries"`
	Probes     uint64 `json:"probes"`
	LastError  string `json:"last_error,omitempty"`
	LastProbe  string `json:"last_probe,omitempty"`
}

func (m *storageMonitor) health(served []*topic) *storageHealth {
	if m == nil {
		return nil
	}
	h := &storageHealth{
		State:      "ok",
		Failures:   m.failures.Load(),
		Recoveries: m.recoveries.Load(),
		Probes:     m.probes.Load(),
	}
	for _, tp := range served {
		switch tp.storage.Load() {
		case stDegraded:
			h.Degraded = append(h.Degraded, tp.name)
		case stParked:
			h.Parked = append(h.Parked, tp.name)
		}
	}
	sort.Strings(h.Degraded)
	sort.Strings(h.Parked)
	if len(h.Degraded)+len(h.Parked) > 0 {
		h.State = "degraded"
	}
	if m.readonly.Load() {
		h.State = "readonly"
	}
	if p := m.lastErr.Load(); p != nil {
		h.LastError = *p
	}
	if p := m.lastProbe.Load(); p != nil {
		h.LastProbe = *p
	}
	return h
}
