//go:build !race

// Absolute allocation counts only hold without the race detector, whose
// instrumentation allocates and is charged to the measured call.

package synth

import (
	"math/rand"
	"testing"
)

// TestPickRetweetSourceAllocs pins that a retweet pick indexes the last
// two days in place: over a pool of several thousand tweets it allocates
// nothing.
func TestPickRetweetSourceAllocs(t *testing.T) {
	const perDay = 3000
	d := &Dataset{TweetClass: make([]int, 2*perDay)}
	recent := [][]int{make([]int, perDay), make([]int, perDay)}
	for i := range d.TweetClass {
		d.TweetClass[i] = i % 3
		recent[i/perDay][i%perDay] = i
	}
	rng := rand.New(rand.NewSource(1))
	stance := 0
	allocs := testing.AllocsPerRun(1000, func() {
		if d.pickRetweetSource(rng, recent, 1, stance, 0.85) < 0 {
			t.Fatal("no source from a full pool")
		}
		stance = (stance + 1) % 3
	})
	if allocs != 0 {
		t.Fatalf("pickRetweetSource allocated %v times per call, want 0", allocs)
	}
}

// TestGenerateAllocs caps the allocations of generating online_replay's
// seed-1 corpus (Prop37 at seed 38). Tokens come from a shared arena and
// the corpus is reserved up front, so what is left is mostly the user
// names, the planted words and the days' retweet pools: 10,652
// allocations with go1.24. The cap leaves 22 % headroom over that; a
// generator that allocates a slice per tweet makes ≈55k.
func TestGenerateAllocs(t *testing.T) {
	const ceiling = 13000
	cfg := Prop37Config()
	cfg.Seed = 38
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := Generate(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > ceiling {
		t.Fatalf("Generate(Prop37, seed 38) allocated %v times, want ≤ %d", allocs, ceiling)
	}
}
