//go:build !race

// Absolute allocation counts only hold without the race detector, whose
// instrumentation allocates and is charged to the measured call.

package tgraph

import (
	"math/rand"
	"testing"

	"triclust/internal/text"
)

// TestSliceAllocsIgnoreSize pins that Slice allocates the same number of
// times however large the corpus or the window — at most the corpus
// header, the index map, the tweets and the dense remap: no map to grow.
func TestSliceAllocsIgnoreSize(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var first float64
	for _, tc := range []struct{ n, from, to int }{
		{100, 0, 1}, {100, 0, 10}, {20000, 0, 1}, {20000, 0, 10}, {20000, 3, 7},
	} {
		c := randomCorpus(rng, tc.n, 50, 10, false, false)
		allocs := testing.AllocsPerRun(20, func() { c.Slice(tc.from, tc.to) })
		if first == 0 {
			first = allocs
		}
		if allocs != first || allocs > 4 {
			t.Fatalf("Slice of %d tweets over [%d,%d) allocates %.0f times, want %.0f (≤ 4) at every size",
				tc.n, tc.from, tc.to, allocs, first)
		}
	}
}

// TestSnapshotBuilderSteadyStateAllocs pins the SnapshotBuilder promise: once
// its buffers have grown to the windows it sees, Build allocates only the
// Active and TweetIdx slices it hands to the caller.
func TestSnapshotBuilderSteadyStateAllocs(t *testing.T) {
	c := randomCorpus(rand.New(rand.NewSource(5)), 400, 30, 8, true, true)
	vocab := text.BuildVocabulary(c.TokenDocs(), 1)
	var b SnapshotBuilder
	windows := [][2]int{{0, 8}, {2, 3}, {4, 6}, {1, 5}}
	for _, w := range windows {
		b.Build(c, w[0], w[1], vocab, text.TFIDF)
	}
	next := 0
	allocs := testing.AllocsPerRun(40, func() {
		w := windows[next%len(windows)]
		next++
		b.Build(c, w[0], w[1], vocab, text.TFIDF)
	})
	if allocs != 2 {
		t.Fatalf("steady-state Build allocates %.2f times per call, want 2 (Active and TweetIdx)", allocs)
	}
}
