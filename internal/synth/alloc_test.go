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
