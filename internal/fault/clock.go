package fault

import (
	"context"
	"sync"
	"time"
)

// Clock is a manual clock for the daemon's one wait (cluster.Sleep): its
// Sleep parks the caller until the clock moves to the sleeper's deadline or
// the sleeper's context ends. Nothing moves it but Advance and Step, so a
// test steps every loop that sleeps on it exactly one round at a time:
// Advance wakes every due sleeper at once; Step wakes them one by one, in
// an order the test names through each sleeper's key.
type Clock struct {
	mu       sync.Mutex
	now      time.Duration
	sleepers map[*sleeper]struct{}
	parks    uint64 // sleeps so far: the tie-break of equal keys
	// parked is closed and replaced whenever a sleeper parks or leaves.
	parked chan struct{}
}

type sleeper struct {
	wake  chan struct{}
	until time.Duration
	key   string
	park  uint64
}

// NewClock returns a Clock at zero with no sleepers.
func NewClock() *Clock {
	return &Clock{sleepers: make(map[*sleeper]struct{}), parked: make(chan struct{})}
}

// changed wakes WaitSleepers; c.mu is held.
func (c *Clock) changed() {
	close(c.parked)
	c.parked = make(chan struct{})
}

// Sleep waits until the clock has advanced d past now or ctx ends, and
// reports whether ctx is still live. A d ≤ 0 returns at once.
func (c *Clock) Sleep(ctx context.Context, d time.Duration) bool {
	return c.SleepAs(ctx, d, "")
}

// SleepAs is Sleep under key, the name Step orders this sleeper by.
func (c *Clock) SleepAs(ctx context.Context, d time.Duration, key string) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	s := &sleeper{wake: make(chan struct{}), key: key}
	c.mu.Lock()
	s.until, s.park = c.now+d, c.parks
	c.parks++
	c.sleepers[s] = struct{}{}
	c.changed()
	c.mu.Unlock()
	select {
	case <-s.wake:
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.sleepers, s)
		c.changed()
		c.mu.Unlock()
	}
	return ctx.Err() == nil
}

// Advance moves the clock d forward and wakes every sleeper whose
// deadline it reaches, all at once; they are no longer parked when it
// returns.
func (c *Clock) Advance(d time.Duration) { c.Step(d, func() {}) }

// Step moves the clock d forward and wakes the sleepers whose deadline it
// reaches one at a time, by deadline, then key, then the order they
// parked in, calling settle after each wake; settle must return once the
// woken sleeper runs no more (parked again, or gone). Only the order of
// sleepers with equal keys is left to the order they parked in.
func (c *Clock) Step(d time.Duration, settle func()) {
	c.mu.Lock()
	c.now += d
	c.mu.Unlock()
	for c.wakeFirst() {
		settle()
	}
}

// wakeFirst wakes the first due sleeper in Step's order and reports
// whether there was one.
func (c *Clock) wakeFirst() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	var first *sleeper
	for s := range c.sleepers {
		if s.until <= c.now && (first == nil || s.until < first.until ||
			s.until == first.until && (s.key < first.key || s.key == first.key && s.park < first.park)) {
			first = s
		}
	}
	if first == nil {
		return false
	}
	delete(c.sleepers, first)
	close(first.wake)
	c.changed()
	return true
}

// WaitSleepers blocks until at least n sleepers are parked and reports
// whether they were before timeout (wall time, a bound for a test that
// would otherwise hang) passed.
func (c *Clock) WaitSleepers(n int, timeout time.Duration) bool {
	expired := time.After(timeout)
	for {
		c.mu.Lock()
		parked, changed := len(c.sleepers), c.parked
		c.mu.Unlock()
		if parked >= n {
			return true
		}
		select {
		case <-changed:
		case <-expired:
			return false
		}
	}
}
