package main

import (
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// A topic's condition is one atomic state, and topicStates the one table
// of what each state means to a request. A topic leaves stServing when
// one of its durable writes fails (stReadOnly: reads served from the
// topic's state, which a refused write never changed, via the RCU view).
// stRetired is terminal: the topic was deleted, handed off or fenced.
//
//	stServing ──(a failed durable write)──▶ stReadOnly
//	stReadOnly ──(probe ok + compaction save ok)──▶ stServing
//	any ──(retire)──▶ stRetired
//
// The whole shard is read-only while its last write probe failed: every
// write answers 503 storage_degraded, because a data directory that
// refuses a probe would refuse the next topic's write too.
const (
	stServing int32 = iota
	stReadOnly
	stRetired
)

var topicStates = [...]struct {
	readable, writable bool
	// status, code and why refuse what the state does not admit
	// (Retry-After rides on every 503, see fail).
	status    int
	code, why string
	// mark is the X-Triclust-Degraded value of admitted reads: a header
	// (not a body change) so ETag revalidation and the memoized /features
	// body stay byte-identical.
	mark string
}{
	stServing: {readable: true, writable: true},
	stReadOnly: {readable: true, status: http.StatusServiceUnavailable, code: codeStorageDegraded,
		why: "is read-only after a failed durable write; retry after recovery", mark: "storage"},
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
		return errf(http.StatusServiceUnavailable, codeStorageDegraded,
			"shard is read-only: its last write probe failed; retry after recovery")
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

// storageMonitor runs the disk-degraded state machine: a failed durable
// write makes its topic read-only, and while anything is read-only each
// tick probes the data directory with a real write+fsync cycle (the
// store's Probe). The probe's result is the shard's switch; once it
// passes, each read-only topic is recovered by a proving compaction save.
// One monitor per server; nil when the server has no store (nothing
// durable can fail).
type storageMonitor struct {
	s *server

	failures   atomic.Uint64
	recoveries atomic.Uint64
	probes     atomic.Uint64
	lastErr    atomic.Pointer[string]
	lastProbe  atomic.Pointer[string]
	// readonly is the shard-level switch: whether the last probe failed.
	readonly atomic.Bool
}

// retrySeconds is the Retry-After value of every 503: the tick's cadence,
// since that is how often its storage or resume step can clear the
// refusal, in whole seconds rounded up (at least 1), so a client never
// retries before the next tick.
func retrySeconds(every time.Duration) string {
	return strconv.FormatInt(max(1, int64((every+time.Second-1)/time.Second)), 10)
}

// noteFailure records a failed durable write on tp and makes the topic
// read-only: whatever the failure left behind — a journal lost or cut
// back, a snapshot without its journal restarted — the write probe's
// recovery compaction rebuilds. Callers hold tp.mu.
func (m *storageMonitor) noteFailure(tp *topic, err error) {
	if m == nil {
		return
	}
	m.failures.Add(1)
	msg := err.Error()
	m.lastErr.Store(&msg)
	if tp.state.CompareAndSwap(stServing, stReadOnly) {
		m.s.logf("topic %q storage-degraded after a failed durable write: %v", tp.name, err)
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

// probe is the tick's storage step. While any topic is impaired or the
// shard switch is set, it probes the data directory with a real
// write+fsync cycle and sets the switch to whether that failed; once
// writes work again it proves each impaired topic back to health.
func (m *storageMonitor) probe() {
	if m == nil || len(m.impaired()) == 0 && !m.readonly.Load() {
		return
	}
	m.probes.Add(1)
	err := m.s.store.Probe()
	msg := "ok"
	if err != nil {
		msg = "probe failed: " + err.Error()
	}
	m.lastProbe.Store(&msg)
	if failed := err != nil; m.readonly.Swap(failed) != failed {
		if failed {
			m.s.logf("shard read-only: write %s", msg)
		} else {
			m.s.logf("shard writable again: write probe ok")
		}
	}
	if err != nil {
		return
	}
	for _, tp := range m.impaired() {
		m.recoverTopic(tp)
	}
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
	// (the last write probe failed: the shard-level switch).
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
