package tgraph

import (
	"math/rand"
	"reflect"
	"testing"
)

// mapSlice is the reference window cut: the hash-map implementation
// Corpus.Slice had before the dense remap.
func mapSlice(c *Corpus, from, to int) (*Corpus, []int) {
	var idx []int
	for i, tw := range c.Tweets {
		if tw.Time >= from && tw.Time < to {
			idx = append(idx, i)
		}
	}
	global := make(map[int]int, len(idx))
	for local, g := range idx {
		global[g] = local
	}
	out := &Corpus{Users: c.Users, Tweets: make([]Tweet, len(idx))}
	for local, g := range idx {
		tw := c.Tweets[g]
		if tw.RetweetOf >= 0 {
			if l, ok := global[tw.RetweetOf]; ok {
				tw.RetweetOf = l
			} else {
				tw.RetweetOf = -1
			}
		}
		out.Tweets[local] = tw
	}
	return out, idx
}

var windowWords = []string{"love", "hate", "win", "lose", "vote", "tax", "label", "cost"}

// randomCorpus draws n tweets by m users over days [0, days). With
// unsorted, times are drawn independently; otherwise they are
// non-decreasing. With valid, every RetweetOf is -1 or another tweet's
// index (earlier, later, same day or not); otherwise targets also run
// past the corpus end and below -1, as an unvalidated corpus may hold.
func randomCorpus(rng *rand.Rand, n, m, days int, unsorted, valid bool) *Corpus {
	c := &Corpus{Users: make([]User, m), Tweets: make([]Tweet, n)}
	for u := range c.Users {
		c.Users[u] = User{Name: string(rune('a' + u%26)), Label: u%4 - 1}
	}
	for i := range c.Tweets {
		tw := Tweet{User: rng.Intn(m), RetweetOf: -1, Label: rng.Intn(4) - 1}
		if unsorted {
			tw.Time = rng.Intn(days)
		} else {
			tw.Time = i * days / n
		}
		for k := 1 + rng.Intn(3); k > 0; k-- {
			tw.Tokens = append(tw.Tokens, windowWords[rng.Intn(len(windowWords))])
		}
		switch r := rng.Intn(10); {
		case r < 4 && n > 1:
			if tw.RetweetOf = rng.Intn(n - 1); tw.RetweetOf >= i {
				tw.RetweetOf++ // never itself
			}
		case r == 4 && !valid:
			tw.RetweetOf = n + rng.Intn(3)
		case r == 5 && !valid:
			tw.RetweetOf = -2
		}
		c.Tweets[i] = tw
	}
	return c
}

// TestSliceMatchesMapReference checks the dense-remap Slice against the
// hash-map reference — tweets, remapped retweet targets, index map and
// nil-ness — on random corpora with sorted and unsorted times, retweets
// within, across and ahead of the window, targets past the corpus end,
// empty windows and from ≥ to.
func TestSliceMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(60)
		if trial%10 == 0 {
			n = 0
		}
		days := 1 + rng.Intn(12)
		c := randomCorpus(rng, n, 1+rng.Intn(9), days, trial%2 == 0, false)
		for w := 0; w < 8; w++ {
			from, to := rng.Intn(days+4)-2, rng.Intn(days+4)-2
			got, gotIdx := c.Slice(from, to)
			want, wantIdx := mapSlice(c, from, to)
			if !reflect.DeepEqual(gotIdx, wantIdx) {
				t.Fatalf("trial %d [%d,%d): idx %v, reference %v", trial, from, to, gotIdx, wantIdx)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d [%d,%d): tweets %+v, reference %+v", trial, from, to, got.Tweets, want.Tweets)
			}
		}
	}
}
