package main

import (
	"errors"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// A topic's condition is one atomic state, and topicStates the one table
// of what each state means to a request. A topic leaves stServing when
// its durable writes keep failing (stReadOnly: reads served from the last
// durable state via the RCU view) and falls to stParked when even the
// rollback reload failed — the daemon then holds NO state disk vouches
// for, so the topic serves nothing until a probe-driven reload succeeds.
// stRetired is terminal: the topic was deleted, handed off or fenced.
//
//	stServing ──(DegradeAfter consecutive failures, ENOSPC, or no journal)──▶ stReadOnly
//	stServing/stReadOnly ──(rollback reload fails)──▶ stParked
//	stReadOnly ──(probe ok + compaction save ok)──▶ stServing
//	stParked ──(probe ok + reload ok + save ok)──▶ stServing
//	any ──(retire)──▶ stRetired
//
// Past ShardAfter read-only/parked topics the whole shard turns
// read-only: every write answers 503 storage_readonly, because a disk
// failing across topics is a disk about to fail the next topic too.
const (
	stServing int32 = iota
	stReadOnly
	stParked
	stRetired
)

var topicStates = [...]struct {
	readable, writable bool
	// status, code and why refuse what the state does not admit
	// (Retry-After rides on the storage codes, see fail).
	status    int
	code, why string
	// mark is the X-Triclust-Degraded value of admitted reads: a header
	// (not a body change) so ETag revalidation and the memoized /features
	// body stay byte-identical.
	mark string
}{
	stServing: {readable: true, writable: true},
	stReadOnly: {readable: true, status: http.StatusServiceUnavailable, code: codeStorageDegraded,
		why: "is read-only after persistent storage failures; retry after recovery", mark: "storage"},
	stParked: {status: http.StatusServiceUnavailable, code: codeStorageDegraded,
		why: "is parked after a storage failure (no state disk vouches for); retry after recovery"},
	stRetired: {status: http.StatusNotFound, code: codeTopicNotFound, why: "was deleted"},
}

const (
	opRead  = false
	opWrite = true
)

// admit is the one gate of a request against a topic's condition: nil
// admits, anything else is the refusal to answer. Writes also pass the
// shard-level switch; tp nil (create, restore) checks only that. Writers
// call it under tp.mu, so the verdict holds until they unlock; the read
// plane calls it lock-free.
func (s *server) admit(tp *topic, write bool) *apiError {
	if m := s.storage; write && m != nil && m.readonly.Load() {
		return errf(http.StatusServiceUnavailable, codeStorageReadonly,
			"shard is read-only: %d+ topics have degraded storage; retry after recovery", m.opts.ShardAfter)
	}
	if tp == nil {
		return nil
	}
	st := &topicStates[tp.state.Load()]
	if write && st.writable || !write && st.readable {
		return nil
	}
	return errf(st.status, st.code, "topic %q %s", tp.name, st.why)
}

// setState moves tp to state to, reporting whether anything changed;
// nothing leaves stRetired. Callers hold tp.mu.
func (tp *topic) setState(to int32) bool {
	if from := tp.state.Load(); from == stRetired || from == to {
		return false
	}
	tp.state.Store(to)
	return true
}

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

	// running is set while the probe loop is live; the loop clears it
	// when it stops itself.
	mu      sync.Mutex
	running bool
}

func newStorageMonitor(s *server, opts storageOptions) *storageMonitor {
	return &storageMonitor{s: s, opts: opts.withDefaults()}
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
		if tp.state.CompareAndSwap(stServing, stReadOnly) {
			m.s.logf("topic %q storage-degraded after %d consecutive durable-write failures: %v", tp.name, n, err)
		}
		m.recount()
		m.ensureProber()
	}
}

// degradedHeader marks read responses served from the last durable
// state while the topic's storage is degraded (see topicStates.mark).
const degradedHeader = "X-Triclust-Degraded"

// park drops tp to the parked state: the rollback reload after a failed
// durable write itself failed, so the in-memory engine is ahead of
// anything disk vouches for and must not be served as current — reads
// and writes both refuse until a probe-driven reload succeeds. Callers
// hold tp.mu.
func (m *storageMonitor) park(tp *topic, err error) {
	if m == nil {
		return
	}
	tp.setState(stParked)
	msg := err.Error()
	m.lastErr.Store(&msg)
	m.s.logf("topic %q parked: durable state unreadable after a storage failure (%v); refusing reads and writes until recovery re-reads disk", tp.name, err)
	m.recount()
	m.ensureProber()
}

// impaired returns the served topics that do not admit writes.
func (m *storageMonitor) impaired() []*topic {
	var out []*topic
	for _, tp := range m.s.served() {
		if !topicStates[tp.state.Load()].writable {
			out = append(out, tp)
		}
	}
	return out
}

// recount recomputes the shard-level read-only switch from the current
// per-topic states and returns how many served topics are impaired. Safe
// under tp.mu (lock order tp.mu → s.mu).
func (m *storageMonitor) recount() int {
	n := len(m.impaired())
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
// loop stops itself once every topic admits writes again, so servers that
// never degrade never run it.
func (m *storageMonitor) ensureProber() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.running {
		m.running = true
		m.s.spawn(m.probeLoop)
	}
}

func (m *storageMonitor) probeLoop() {
	for m.s.sleep(m.s.ctx, m.opts.ProbeInterval) {
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
		for _, tp := range m.impaired() {
			m.recoverTopic(tp)
		}
		// Nothing left to watch: stop until the next degrade. The count is
		// taken under m.mu, so a topic that degrades after it finds the
		// loop stopped and starts the next one.
		m.mu.Lock()
		idle := m.recount() == 0
		m.running = !idle
		m.mu.Unlock()
		if idle {
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
	state := tp.state.Load()
	if state != stReadOnly && state != stParked {
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
	if err := m.s.saveIfCurrent(tp); err != nil {
		m.s.logf("recovery save %q: %v (still degraded)", tp.name, err)
		return
	}
	tp.setState(stServing)
	tp.storFails.Store(0)
	m.recoveries.Add(1)
	if e := m.s.replShip(tp, nil, false); e != nil {
		m.s.logf("recovery re-ship %q: %v", tp.name, e)
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
	var in [len(topicStates)][]string
	for _, tp := range served {
		st := tp.state.Load()
		in[st] = append(in[st], tp.name)
	}
	h.Degraded, h.Parked = in[stReadOnly], in[stParked]
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
