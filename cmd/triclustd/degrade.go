package main

import (
	"errors"
	"net/http"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"
)

// A topic's condition is one atomic state, and topicStates the one table
// of what each state means to a request. A topic leaves stServing when
// its durable writes keep failing (stReadOnly: reads served from the
// topic's state, which a refused write never changed, via the RCU view).
// stRetired is terminal: the topic was deleted, handed off or fenced.
//
//	stServing ──(degradeAfter consecutive failures, ENOSPC, or no journal)──▶ stReadOnly
//	stReadOnly ──(probe ok + compaction save ok)──▶ stServing
//	any ──(retire)──▶ stRetired
//
// Past shardDegradeAfter read-only topics the whole shard turns
// read-only: every write answers 503 storage_readonly, because a disk
// failing across topics is a disk about to fail the next topic too.
const (
	stServing int32 = iota
	stReadOnly
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
			"shard is read-only: %d+ topics have degraded storage; retry after recovery", shardDegradeAfter)
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

const (
	// degradeAfter is how many consecutive durable-write failures flip a
	// topic into the read-only degraded state (ENOSPC and a lost journal
	// flip immediately: neither is a transient).
	degradeAfter = 3
	// shardDegradeAfter is how many degraded topics flip the whole shard
	// read-only.
	shardDegradeAfter = 2
)

// storageMonitor runs the disk-degraded state machine: it counts
// durable-write failures per topic, degrades topics (and past a
// threshold the shard) into read-only, probes the data directory with
// real write+fsync cycles (the store's Probe) on each tick while anything
// is degraded, and recovers topics with a proving compaction save once
// writes succeed again. One monitor per server; nil when the server has no store
// (nothing durable can fail).
type storageMonitor struct {
	s *server

	failures   atomic.Uint64
	recoveries atomic.Uint64
	probes     atomic.Uint64
	lastErr    atomic.Pointer[string]
	lastProbe  atomic.Pointer[string]
	// readonly is the shard-level switch: set when ≥ shardDegradeAfter
	// topics are degraded, cleared as recoveries bring the count back
	// down.
	readonly atomic.Bool
}

// retrySeconds is the Retry-After value for refused writes: the probe
// cadence, since that is how often recovery can happen, in whole seconds
// rounded up (at least 1), so a client never retries before the next probe.
func retrySeconds(every time.Duration) string {
	return strconv.FormatInt(max(1, int64((every+time.Second-1)/time.Second)), 10)
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
	if n >= degradeAfter || errors.Is(err, syscall.ENOSPC) || !tp.disk.HasJournal() {
		if tp.state.CompareAndSwap(stServing, stReadOnly) {
			m.s.logf("topic %q storage-degraded after %d consecutive durable-write failures: %v", tp.name, n, err)
		}
		m.recount()
	}
}

// degradedHeader marks read responses served from the last durable
// state while the topic's storage is degraded (see topicStates.mark).
const degradedHeader = "X-Triclust-Degraded"

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
	was := m.readonly.Swap(n >= shardDegradeAfter)
	now := n >= shardDegradeAfter
	if now && !was {
		m.s.logf("shard read-only: %d topics with degraded storage (threshold %d)", n, shardDegradeAfter)
	} else if was && !now {
		m.s.logf("shard writable again: %d topics with degraded storage (threshold %d)", n, shardDegradeAfter)
	}
	return n
}

// probe is the tick's storage step. While any topic is impaired or the
// shard switch is set, it probes the data directory with a real
// write+fsync cycle; once writes work again it proves each impaired topic
// back to health, then recounts the switch.
func (m *storageMonitor) probe() {
	if m == nil || len(m.impaired()) == 0 && !m.readonly.Load() {
		return
	}
	m.probes.Add(1)
	if err := m.s.store.Probe(); err != nil {
		msg := "probe failed: " + err.Error()
		m.lastProbe.Store(&msg)
		return
	}
	ok := "ok"
	m.lastProbe.Store(&ok)
	for _, tp := range m.impaired() {
		m.recoverTopic(tp)
	}
	m.recount()
}

// recoverTopic brings one degraded topic back with a proving write: a
// fresh snapshot + journal restart, which also re-bases the followers
// (replShip below), so replication converges from the recovered durable
// state. Failure leaves the state unchanged for the next probe round.
func (m *storageMonitor) recoverTopic(tp *topic) {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	if tp.state.Load() != stReadOnly {
		return
	}
	if err := m.s.saveIfCurrent(tp, tp.eng); err != nil {
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
	// Degraded lists the read-only topics.
	Degraded []string `json:"degraded_topics,omitempty"`
	// Failures counts durable-write failures since startup; Recoveries
	// counts topics proven back to health; Probes counts write probes: the
	// ticks whose storage step ran, one probe each.
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
		if tp.state.Load() == stReadOnly {
			h.Degraded = append(h.Degraded, tp.name)
		}
	}
	if len(h.Degraded) > 0 {
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
