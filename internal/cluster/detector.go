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
	return c
}

// Detector is a per-shard failure detector: one probe loop per peer, a
// consecutive-failure threshold, and capped-backoff re-probing of down
// peers until they answer again. It holds the shard's local view of which
// peers are alive — there is no gossip; every shard probes every peer, so
// views converge within a probe interval of the truth without any shared
// state.
type Detector struct {
	cfg   DetectorConfig
	probe ProbeFunc
	// onChange (optional) is called outside the detector's locks whenever
	// a peer transitions up↔down, from the peer's probe goroutine.
	onChange func(peer string, down bool)

	mu    sync.Mutex
	state map[string]*peerProbe

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

type peerProbe struct {
	fails int
	down  bool
}

// NewDetector builds (but does not start) a detector over peers. The
// probe function is called concurrently from one goroutine per peer.
func NewDetector(peers []string, probe ProbeFunc, cfg DetectorConfig, onChange func(peer string, down bool)) *Detector {
	d := &Detector{
		cfg:      cfg.withDefaults(),
		probe:    probe,
		onChange: onChange,
		state:    make(map[string]*peerProbe, len(peers)),
		stop:     make(chan struct{}),
	}
	for _, p := range peers {
		d.state[p] = &peerProbe{}
	}
	return d
}

// Start launches the probe loops. Stop must be called to release them.
func (d *Detector) Start() {
	d.mu.Lock()
	peers := make([]string, 0, len(d.state))
	for p := range d.state {
		peers = append(peers, p)
	}
	d.mu.Unlock()
	for _, p := range peers {
		d.wg.Add(1)
		go d.probeLoop(p)
	}
}

// Stop terminates the probe loops and waits for them to exit.
func (d *Detector) Stop() {
	d.stopOnce.Do(func() { close(d.stop) })
	d.wg.Wait()
}

func (d *Detector) probeLoop(peer string) {
	defer d.wg.Done()
	timer := time.NewTimer(d.cfg.Interval)
	defer timer.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-timer.C:
		}
		ctx, cancel := context.WithTimeout(context.Background(), d.cfg.Timeout)
		err := d.probe(ctx, peer)
		cancel()
		changed, down, downFor := d.record(peer, err == nil)
		if changed && d.onChange != nil {
			d.onChange(peer, down)
		}
		// Live peers are probed at the steady interval; down peers back
		// off (capped), so a long outage costs a trickle of probes.
		next := d.cfg.Interval
		if down {
			next = d.cfg.Backoff.Delay(downFor)
			if next < d.cfg.Interval {
				next = d.cfg.Interval
			}
		}
		timer.Reset(next)
	}
}

// record folds one probe result into the peer's state, reporting whether
// the up/down verdict changed, the new verdict, and for how many probes
// beyond the threshold the peer has been down (the backoff exponent).
func (d *Detector) record(peer string, ok bool) (changed, down bool, downFor int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.state[peer]
	if st == nil {
		return false, false, 0
	}
	if ok {
		changed = st.down
		st.down = false
		st.fails = 0
		return changed, false, 0
	}
	st.fails++
	if !st.down && st.fails >= d.cfg.Threshold {
		st.down = true
		changed = true
	}
	return changed, st.down, st.fails - d.cfg.Threshold
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
