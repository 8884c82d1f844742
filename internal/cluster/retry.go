package cluster

import (
	"context"
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
