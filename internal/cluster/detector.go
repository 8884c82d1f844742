package cluster

import (
	"context"
	"sort"
	"sync"
	"time"
)

// ProbeFunc checks one peer's liveness (triclustd probes GET /v1/healthz).
// A nil error is a successful probe; ctx carries the per-probe timeout.
type ProbeFunc func(ctx context.Context, peer string) error

// DetectorConfig tunes the failure detector's probe loop.
type DetectorConfig struct {
	// Interval between probes of a live peer.
	Interval time.Duration
	// Timeout bounds each individual probe.
	Timeout time.Duration
	// Threshold is the number of consecutive probe failures after which a
	// peer is declared down. One failed probe is routine (a GC pause, a
	// dropped packet); Threshold of them in a row is a dead or partitioned
	// peer.
	Threshold int
	// Backoff spaces out probes of a peer already declared down, so a
	// long-dead peer is not hammered at the live-probe cadence.
	Backoff Backoff
	// Sleep is the wait between probes (nil: WallSleep).
	Sleep Sleep
}

func (c DetectorConfig) withDefaults() DetectorConfig {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.Timeout <= 0 {
		c.Timeout = c.Interval
	}
	if c.Threshold <= 0 {
		c.Threshold = 3
	}
	if c.Sleep == nil {
		c.Sleep = WallSleep
	}
	return c
}

// Detector is a per-shard failure detector: one probe loop per peer, a
// consecutive-failure threshold, and capped-backoff re-probing of down
// peers until they answer again. It holds the shard's local view of which
// peers are alive — there is no gossip; every shard probes every peer, so
// views converge within a probe interval of the truth without any shared
// state. It starts no goroutine of its own: the caller runs Watch for each
// peer under the lifetime it owns.
type Detector struct {
	cfg   DetectorConfig
	probe ProbeFunc

	mu    sync.Mutex
	state map[string]*peerProbe
}

type peerProbe struct {
	fails int
	down  bool
}

// NewDetector builds a detector over peers, all reported up until Watch
// has probed them.
func NewDetector(peers []string, probe ProbeFunc, cfg DetectorConfig) *Detector {
	d := &Detector{
		cfg:   cfg.withDefaults(),
		probe: probe,
		state: make(map[string]*peerProbe, len(peers)),
	}
	for _, p := range peers {
		d.state[p] = &peerProbe{}
	}
	return d
}

// Watch probes peer until ctx ends: every Interval while it is live, at a
// capped backoff once it is down (a long outage costs a trickle of probes).
// A probe's deadline derives from ctx, so a probe in flight ends with it.
func (d *Detector) Watch(ctx context.Context, peer string) {
	for next := d.cfg.Interval; d.cfg.Sleep(ctx, next); {
		pctx, cancel := context.WithTimeout(ctx, d.cfg.Timeout)
		err := d.probe(pctx, peer)
		cancel()
		next = d.cfg.Interval
		if down, downFor := d.record(peer, err == nil); down {
			next = max(d.cfg.Backoff.Delay(downFor), d.cfg.Interval)
		}
	}
}

// record folds one probe result into the peer's state, reporting the
// verdict and for how many probes beyond the threshold the peer has been
// down (the backoff exponent).
func (d *Detector) record(peer string, ok bool) (down bool, downFor int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.state[peer]
	if st == nil {
		return false, 0
	}
	if ok {
		st.down = false
		st.fails = 0
		return false, 0
	}
	st.fails++
	st.down = st.down || st.fails >= d.cfg.Threshold
	return st.down, st.fails - d.cfg.Threshold
}

// Down reports this shard's current verdict on peer. Unknown peers are
// reported up — the detector never blocks traffic to a peer it was not
// configured to watch.
func (d *Detector) Down(peer string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.state[peer]
	return st != nil && st.down
}

// DownPeers returns the sorted list of peers currently declared down.
func (d *Detector) DownPeers() []string {
	d.mu.Lock()
	var out []string
	for p, st := range d.state {
		if st.down {
			out = append(out, p)
		}
	}
	d.mu.Unlock()
	sort.Strings(out)
	return out
}

// FirstLive returns the first peer in order that is not declared down.
func (d *Detector) FirstLive(peers []string) (string, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, p := range peers {
		if st := d.state[p]; st == nil || !st.down {
			return p, true
		}
	}
	return "", false
}
