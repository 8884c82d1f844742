package fault

import (
	"context"
	"sync"
	"time"
)

// Clock is a manual clock for the daemon's one wait (cluster.Sleep): its
// Sleep parks the caller until Advance moves the clock to the sleeper's
// deadline or the sleeper's context ends. Nothing moves it but Advance,
// so a test steps every loop that sleeps on it exactly one round at a
// time: Advance, then WaitSleepers for the loops to park again.
type Clock struct {
	mu       sync.Mutex
	now      time.Duration
	sleepers map[chan struct{}]time.Duration // wake channel → deadline
	// parked is closed and replaced whenever a sleeper parks or leaves.
	parked chan struct{}
}

// NewClock returns a Clock at zero with no sleepers.
func NewClock() *Clock {
	return &Clock{sleepers: make(map[chan struct{}]time.Duration), parked: make(chan struct{})}
}

// changed wakes WaitSleepers; c.mu is held.
func (c *Clock) changed() {
	close(c.parked)
	c.parked = make(chan struct{})
}

// Sleep waits until the clock has advanced d past now or ctx ends, and
// reports whether ctx is still live. A d ≤ 0 returns at once.
func (c *Clock) Sleep(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	wake := make(chan struct{})
	c.mu.Lock()
	c.sleepers[wake] = c.now + d
	c.changed()
	c.mu.Unlock()
	select {
	case <-wake:
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.sleepers, wake)
		c.changed()
		c.mu.Unlock()
	}
	return ctx.Err() == nil
}

// Advance moves the clock d forward and wakes every sleeper whose
// deadline it reaches; they are no longer parked when it returns.
func (c *Clock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now += d
	for wake, until := range c.sleepers {
		if until <= c.now {
			delete(c.sleepers, wake)
			close(wake)
		}
	}
	c.changed()
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
