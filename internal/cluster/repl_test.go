package cluster

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"triclust/internal/fault"
)

func testRing(t *testing.T, peers ...string) *Ring {
	t.Helper()
	r, err := New(peers, 64)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return r
}

func TestReplicaSetDistinctAndOwnerFirst(t *testing.T) {
	peers := []string{"http://a", "http://b", "http://c", "http://d"}
	r := testRing(t, peers...)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("topic-%03d", i)
		for n := 1; n <= len(peers)+2; n++ {
			set := r.ReplicaSet(key, n)
			want := n
			if want > len(peers) {
				want = len(peers)
			}
			if len(set) != want {
				t.Fatalf("ReplicaSet(%q, %d) has %d peers, want %d", key, n, len(set), want)
			}
			if set[0] != r.Owner(key) {
				t.Fatalf("ReplicaSet(%q)[0] = %s, Owner = %s", key, set[0], r.Owner(key))
			}
			seen := make(map[string]bool)
			for _, p := range set {
				if seen[p] {
					t.Fatalf("ReplicaSet(%q, %d) repeats %s: %v", key, n, p, set)
				}
				seen[p] = true
			}
		}
	}
}

func TestReplicaSetDeterministicAcrossPeerOrder(t *testing.T) {
	peers := []string{"http://a", "http://b", "http://c", "http://d", "http://e"}
	r1 := testRing(t, peers...)
	shuffled := []string{"http://d", "http://b", "http://e", "http://a", "http://c"}
	r2 := testRing(t, shuffled...)
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("k%d", i)
		if a, b := r1.ReplicaSet(key, 3), r2.ReplicaSet(key, 3); !reflect.DeepEqual(a, b) {
			t.Fatalf("ReplicaSet(%q) differs across peer order: %v vs %v", key, a, b)
		}
	}
}

// TestSuccessorsExcludeOwner: a key's followers are its replica set less
// the first entry (how the daemon's replicator takes them), and the owner is
// not among them.
func TestSuccessorsExcludeOwner(t *testing.T) {
	r := testRing(t, "http://a", "http://b", "http://c")
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("k%d", i)
		succ := r.ReplicaSet(key, 3)[1:]
		if len(succ) != 2 {
			t.Fatalf("ReplicaSet(%q, 3)[1:] = %v", key, succ)
		}
		owner := r.Owner(key)
		for _, p := range succ {
			if p == owner {
				t.Fatalf("the followers of %q contain the owner %s", key, owner)
			}
		}
	}
	single := testRing(t, "http://only")
	if set := single.ReplicaSet("k", 3); len(set) != 1 {
		t.Fatalf("one-peer ring has successors: %v", set)
	}
}

func TestBackoffCappedAndJittered(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Max: time.Second}
	prevCap := time.Duration(0)
	for attempt := 0; attempt < 10; attempt++ {
		cap := b.Base
		for i := 0; i < attempt && cap < b.Max; i++ {
			cap *= 2
		}
		if cap > b.Max {
			cap = b.Max
		}
		for trial := 0; trial < 50; trial++ {
			d := b.Delay(attempt)
			if d < cap/2 || d > cap {
				t.Fatalf("Delay(%d) = %v outside [%v, %v]", attempt, d, cap/2, cap)
			}
		}
		if cap < prevCap {
			t.Fatalf("backoff cap shrank: %v after %v", cap, prevCap)
		}
		prevCap = cap
	}
	// The zero value falls back to the default schedule instead of
	// busy-looping with zero delays.
	var zero Backoff
	if d := zero.Delay(0); d <= 0 {
		t.Fatalf("zero-value Delay(0) = %v, want > 0", d)
	}
}

// watch runs d's probe loop for each peer until the test ends, the way the
// daemon runs it under its server lifetime.
func watch(t *testing.T, d *Detector, peers ...string) {
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for _, p := range peers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.Watch(ctx, p)
		}()
	}
	t.Cleanup(func() {
		cancel()
		wg.Wait()
	})
}

// scriptedPeer is one watched peer on a manual clock: its probe answers
// failing's verdict and counts, and step advances the clock and returns
// once the probe loop has parked again, so every probe the advance was due
// has run.
type scriptedPeer struct {
	t       *testing.T
	clock   *fault.Clock
	d       *Detector
	failing atomic.Bool
	probes  atomic.Int64
}

func newScriptedPeer(t *testing.T, cfg DetectorConfig) *scriptedPeer {
	sp := &scriptedPeer{t: t, clock: fault.NewClock()}
	cfg.Sleep = sp.clock.Sleep
	sp.d = NewDetector([]string{"http://p"}, func(context.Context, string) error {
		sp.probes.Add(1)
		if sp.failing.Load() {
			return errors.New("down")
		}
		return nil
	}, cfg)
	watch(t, sp.d, "http://p")
	sp.park()
	return sp
}

func (sp *scriptedPeer) park() {
	sp.t.Helper()
	if !sp.clock.WaitSleepers(1, 10*time.Second) {
		sp.t.Fatal("the probe loop never parked on the clock")
	}
}

// step advances the clock by d and reports how many probes ran.
func (sp *scriptedPeer) step(d time.Duration) int64 {
	sp.t.Helper()
	before := sp.probes.Load()
	sp.clock.Advance(d)
	sp.park()
	return sp.probes.Load() - before
}

// TestDetectorThresholdAndRecovery pins the probe schedule on a manual
// clock: a live peer is probed once per Interval, declared down on exactly
// the Threshold-th consecutive failure, re-probed while down after
// max(Backoff.Delay(n), Interval) — jittered into [d/2, d] — and brought
// back by one success.
func TestDetectorThresholdAndRecovery(t *testing.T) {
	const interval = time.Second
	b := Backoff{Base: 4 * time.Second, Max: 16 * time.Second}
	sp := newScriptedPeer(t, DetectorConfig{Interval: interval, Threshold: 3, Backoff: b})
	if n := sp.step(interval - 1); n != 0 {
		t.Fatalf("%d probes before the first Interval passed", n)
	}
	for round := 0; round < 3; round++ {
		if n := sp.step(1); n != 1 {
			t.Fatalf("live round %d: %d probes in one Interval, want 1", round, n)
		}
		if n := sp.step(interval - 1); n != 0 {
			t.Fatalf("live round %d: %d probes before the next Interval", round, n)
		}
	}

	if sp.d.Down("http://p") {
		t.Fatal("peer down before any probe failed")
	}
	sp.failing.Store(true)
	for fail := 1; fail <= 3; fail++ {
		if sp.step(1) != 1 {
			t.Fatalf("failure %d: not one probe per Interval", fail)
		}
		if down := sp.d.Down("http://p"); down != (fail == 3) {
			t.Fatalf("after %d consecutive failures Down = %v (threshold 3)", fail, down)
		}
		if fail < 3 {
			sp.step(interval - 1)
		}
	}
	if got := sp.d.DownPeers(); len(got) != 1 || got[0] != "http://p" {
		t.Fatalf("DownPeers = %v", got)
	}

	// Down: the k-th re-probe waits max(Delay(k), Interval), a delay in
	// [cap/2, cap] for the backoff's cap at attempt k, 4s, 8s, 16s, 16s.
	for k, capped := range []time.Duration{4 * time.Second, 8 * time.Second, 16 * time.Second, 16 * time.Second} {
		if n := sp.step(capped/2 - 1); n != 0 {
			t.Fatalf("down re-probe %d came before %v", k, capped/2)
		}
		if n := sp.step(capped/2 + 1); n != 1 {
			t.Fatalf("down re-probe %d: %d probes by %v, want 1", k, n, capped)
		}
		if !sp.d.Down("http://p") {
			t.Fatal("a failed re-probe brought the peer back")
		}
	}

	sp.failing.Store(false)
	if n := sp.step(16 * time.Second); n != 1 || sp.d.Down("http://p") {
		t.Fatalf("one successful probe (%d) left the peer down", n)
	}
	if n := sp.step(interval); n != 1 {
		t.Fatalf("recovered peer: %d probes in the next Interval, want 1", n)
	}
}

func TestDetectorSingleFailureIsNotDown(t *testing.T) {
	const interval = time.Second
	sp := newScriptedPeer(t, DetectorConfig{Interval: interval, Threshold: 3})
	sp.failing.Store(true)
	sp.step(interval)
	sp.failing.Store(false)
	for round := 0; round < 4; round++ {
		sp.step(interval)
		if sp.d.Down("http://p") {
			t.Fatalf("a single failed probe declared the peer down (round %d)", round)
		}
	}
	if n := sp.probes.Load(); n != 5 {
		t.Fatalf("%d probes in 5 Intervals", n)
	}
}

// TestDetectorWatchCancelsProbeInFlight: a probe's deadline derives from
// Watch's context, so ending the context ends a probe that would otherwise
// wait out its whole timeout, and Watch with it.
func TestDetectorWatchCancelsProbeInFlight(t *testing.T) {
	started := make(chan struct{})
	probe := func(ctx context.Context, peer string) error {
		close(started)
		<-ctx.Done()
		return ctx.Err()
	}
	clock := fault.NewClock()
	d := NewDetector([]string{"http://p"}, probe, DetectorConfig{Interval: time.Second, Timeout: time.Hour, Sleep: clock.Sleep})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		d.Watch(ctx, "http://p")
		close(done)
	}()
	if !clock.WaitSleepers(1, 10*time.Second) {
		t.Fatal("the probe loop never parked on the clock")
	}
	clock.Advance(time.Second)
	<-started
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Watch did not return after its context ended mid-probe")
	}
}

func TestDetectorFirstLive(t *testing.T) {
	d := NewDetector([]string{"http://a", "http://b"}, func(context.Context, string) error { return nil },
		DetectorConfig{})
	markDown := func(peer string) {
		d.mu.Lock()
		d.state[peer].down = true
		d.mu.Unlock()
	}
	markDown("http://a")
	if p, ok := d.FirstLive([]string{"http://a", "http://b"}); !ok || p != "http://b" {
		t.Fatalf("FirstLive = %q, %v", p, ok)
	}
	// Unwatched peers (e.g. self) count as live.
	if p, ok := d.FirstLive([]string{"http://self", "http://b"}); !ok || p != "http://self" {
		t.Fatalf("FirstLive with unwatched = %q, %v", p, ok)
	}
	markDown("http://b")
	if _, ok := d.FirstLive([]string{"http://a", "http://b"}); ok {
		t.Fatal("FirstLive found a live peer among all-down")
	}
}

func TestPlanRebalance(t *testing.T) {
	r := testRing(t, "http://a", "http://b", "http://c")
	var held, wantMoved []string
	for i := 0; i < 60; i++ {
		held = append(held, fmt.Sprintf("k%d", i))
	}
	for _, k := range held {
		if r.Owner(k) != "http://a" {
			wantMoved = append(wantMoved, k)
		}
	}
	sort.Strings(wantMoved)
	plan := PlanRebalance(r, "http://a", held, nil)
	var got []string
	for _, mv := range plan {
		if mv.To != r.Owner(mv.Topic) {
			t.Fatalf("move %v does not target the ring owner %s", mv, r.Owner(mv.Topic))
		}
		got = append(got, mv.Topic)
	}
	if !reflect.DeepEqual(got, wantMoved) {
		t.Fatalf("plan moves %v, want %v", got, wantMoved)
	}
	// Dead owners are skipped; their topics stay put until they answer.
	deadOwner := plan[0].To
	filtered := PlanRebalance(r, "http://a", held, func(p string) bool { return p != deadOwner })
	for _, mv := range filtered {
		if mv.To == deadOwner {
			t.Fatalf("plan moves %q onto the dead peer %s", mv.Topic, deadOwner)
		}
	}
	if len(filtered) >= len(plan) {
		t.Fatalf("filtering a dead owner did not shrink the plan (%d vs %d)", len(filtered), len(plan))
	}
}
