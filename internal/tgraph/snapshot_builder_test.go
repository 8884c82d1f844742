package tgraph

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"triclust/internal/sparse"
	"triclust/internal/text"
)

func builderCorpus() *Corpus {
	return &Corpus{
		Users: []User{{Name: "a"}, {Name: "b"}, {Name: "c"}},
		Tweets: []Tweet{
			{Tokens: []string{"love", "win"}, User: 0, Time: 0, RetweetOf: -1, Label: NoLabel},
			{Tokens: []string{"hate", "lose"}, User: 2, Time: 0, RetweetOf: -1, Label: NoLabel},
			{Tokens: []string{"love", "lose"}, User: 1, Time: 1, RetweetOf: -1, Label: NoLabel},
			{Tokens: []string{"win", "win"}, User: 2, Time: 1, RetweetOf: 1, Label: NoLabel},
		},
	}
}

// sameCSR fails the test unless two graph matrices have the same shape
// and the same entries, row by row.
func sameCSR(t *testing.T, name string, got, want *sparse.CSR) {
	t.Helper()
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
		t.Fatalf("%s: %dx%d, want %dx%d", name, got.Rows(), got.Cols(), want.Rows(), want.Cols())
	}
	for i := 0; i < got.Rows(); i++ {
		gc, gv := got.Row(i)
		wc, wv := want.Row(i)
		if !slices.Equal(gc, wc) || !slices.Equal(gv, wv) {
			t.Fatalf("%s row %d: cols %v vals %v, want cols %v vals %v", name, i, gc, gv, wc, wv)
		}
	}
}

// TestSnapshotBuilderMatchesOneShot runs one builder through windows whose
// user sets overlap, nest, are disjoint and shrink, and checks every
// output — each CSR entry of the four matrices, Active, TweetIdx and the
// compacted corpus — against a fresh BuildSnapshot of the same window. A
// builder that carried user or tweet scratch from one window into the
// next would diverge here.
func TestSnapshotBuilderMatchesOneShot(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := randomCorpus(rng, 300, 40, 12, true, true)
	// Days 0–5 are posted by users 0–19, days 6–11 by users 20–39, so
	// windows on either side of day 6 have disjoint user sets.
	for i := range c.Tweets {
		c.Tweets[i].User = c.Tweets[i].User%20 + 20*(c.Tweets[i].Time/6)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	vocab := text.BuildVocabulary(c.TokenDocs(), 1)
	var b SnapshotBuilder
	for _, window := range [][2]int{
		{0, 12}, {0, 6}, {6, 12}, {3, 9}, {4, 5}, {0, 3}, {2, 8}, {11, 12}, {7, 7}, {50, 60}, {0, 12}, {5, 6},
	} {
		from, to := window[0], window[1]
		got := b.Build(c, from, to, vocab, text.TFIDF)
		want := BuildSnapshot(c, from, to, vocab, text.TFIDF)
		if !reflect.DeepEqual(got.Active, want.Active) || !reflect.DeepEqual(got.TweetIdx, want.TweetIdx) {
			t.Fatalf("window %v: Active %v TweetIdx %v, want %v %v", window, got.Active, got.TweetIdx, want.Active, want.TweetIdx)
		}
		// An empty window's compact corpus is the builder's emptied buffers
		// against BuildSnapshot's nil copies.
		if len(want.Corpus.Tweets) == 0 {
			if len(got.Corpus.Tweets)+len(got.Corpus.Users) != 0 {
				t.Fatalf("window %v: empty window keeps compact corpus %+v", window, got.Corpus)
			}
		} else if !reflect.DeepEqual(got.Corpus, want.Corpus) {
			t.Fatalf("window %v: compact corpus %+v, want %+v", window, got.Corpus, want.Corpus)
		}
		sameCSR(t, "Xp", got.Graph.Xp, want.Graph.Xp)
		sameCSR(t, "Xu", got.Graph.Xu, want.Graph.Xu)
		sameCSR(t, "Xr", got.Graph.Xr, want.Graph.Xr)
		sameCSR(t, "Gu", got.Graph.Gu, want.Graph.Gu)

		// The one-shot snapshot agrees with the reference cut.
		sub, idx := mapSlice(c, from, to)
		if !reflect.DeepEqual(want.TweetIdx, idx) || !reflect.DeepEqual(want.Active, sub.ActiveUsers()) {
			t.Fatalf("window %v: TweetIdx %v Active %v, reference %v %v", window, want.TweetIdx, want.Active, idx, sub.ActiveUsers())
		}
		for i, tw := range want.Corpus.Tweets {
			ref := sub.Tweets[i]
			if tw.RetweetOf != ref.RetweetOf || want.Active[tw.User] != ref.User {
				t.Fatalf("window %v tweet %d: %+v, reference %+v", window, i, tw, ref)
			}
		}
	}
}

// TestSnapshotBuilderReusesBuffers checks the builder's compact corpus is
// rebuilt in place: the second Build overwrites, not appends.
func TestSnapshotBuilderReusesBuffers(t *testing.T) {
	c := builderCorpus()
	vocab := text.BuildVocabulary(c.TokenDocs(), 1)
	var b SnapshotBuilder
	s0 := b.Build(c, 0, 1, vocab, text.TF)
	if n := len(s0.Corpus.Tweets); n != 2 {
		t.Fatalf("window 0 has %d tweets", n)
	}
	s1 := b.Build(c, 1, 2, vocab, text.TF)
	if n := len(s1.Corpus.Tweets); n != 2 {
		t.Fatalf("window 1 has %d tweets, buffers not reset", n)
	}
	// Local user remapping still correct on reuse.
	for _, tw := range s1.Corpus.Tweets {
		if tw.User < 0 || tw.User >= len(s1.Active) {
			t.Fatalf("tweet user %d out of local range %d", tw.User, len(s1.Active))
		}
	}
}
