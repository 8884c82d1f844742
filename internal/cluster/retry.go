package cluster

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"
)

// Sleep waits for d or until ctx ends, and reports whether ctx is still
// live. It is the daemon's one wait: each loop is `for sleep(ctx, d) {…}`,
// a fixed delay after each round, and a test steps it with a fault.Clock.
type Sleep func(ctx context.Context, d time.Duration) bool

// WallSleep is the Sleep of the wall clock: the one timer of the daemon.
func WallSleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
	return ctx.Err() == nil
}

// Backoff computes capped exponential retry delays with jitter. Every
// inter-shard call in the daemon (hand-off installs, replica shipping,
// placement queries, health probes) retries through one of these so a hung
// or flapping peer costs a bounded, spread-out amount of waiting instead of
// either a tight retry loop or an unbounded stall.
type Backoff struct {
	// Base is the first retry's delay; attempt k waits Base<<k.
	Base time.Duration
	// Max caps the exponential growth.
	Max time.Duration
}

// DefaultBackoff is the daemon-wide retry schedule: 50ms, 100ms, 200ms, …
// capped at 2s.
var DefaultBackoff = Backoff{Base: 50 * time.Millisecond, Max: 2 * time.Second}

// Delay returns the jittered delay before retry attempt (0-based): the
// capped exponential base scaled by a uniform factor in [0.5, 1.0], so
// simultaneous retries against a recovering peer spread out instead of
// arriving in lockstep. The jitter needs no determinism (nothing replays
// it), so it comes from math/rand/v2's runtime-seeded, concurrency-safe
// global source.
func (b Backoff) Delay(attempt int) time.Duration {
	base := b.Base
	if base <= 0 {
		base = DefaultBackoff.Base
	}
	max := b.Max
	if max <= 0 {
		max = DefaultBackoff.Max
	}
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	return d/2 + time.Duration(rand.Int64N(int64(d/2)+1))
}

// Retry paces the tries of one call to a peer: up to Attempts (at least
// one), Backoff apart, waited out with Sleep. A peer Live declares down
// (nil: no detector) is not tried again: it is resynced when it comes back.
type Retry struct {
	Attempts int
	Backoff  Backoff
	Sleep    Sleep
	Live     Liveness
}

// Do calls try until it reports done or the tries run out, and returns its
// last error, wrapped when a retry was cut short or given up.
func (r Retry) Do(ctx context.Context, peer string, try func() (done bool, err error)) error {
	var last error
	for attempt := 0; attempt < max(r.Attempts, 1); attempt++ {
		if attempt > 0 {
			if r.Live != nil && r.Live.Down(peer) {
				return fmt.Errorf("%s declared down after %d attempts: %w", peer, attempt, last)
			}
			if !r.Sleep(ctx, r.Backoff.Delay(attempt-1)) {
				return ctx.Err()
			}
		}
		done, err := try()
		if last = err; done {
			return err
		}
	}
	if r.Attempts > 1 {
		return fmt.Errorf("gave up after %d attempts: %w", r.Attempts, last)
	}
	return last
}
