package tgraph

import (
	"sort"

	"triclust/internal/sparse"
	"triclust/internal/text"
)

// Snapshot is the tripartite graph of one time window with users
// compacted to the window's active set — the shape Algorithm 2 consumes.
type Snapshot struct {
	// Graph holds Xp (n_t×l), Xu/Xr/Gu over the *local* user indexing.
	Graph *Graph
	// Active maps local user index → global user index.
	Active []int
	// TweetIdx maps local tweet index → global tweet index.
	TweetIdx []int
	// Corpus is the sliced sub-corpus (users still global; tweets local).
	Corpus *Corpus
}

// SnapshotBuilder builds snapshots with reusable scratch state: the
// window slice and its dense retweet remap, the dense local-user index
// userPos (−1 between builds: a build resets the entries it set), the
// compacted corpus buffers and the triplet builders and CSR backing arrays
// of all four graph matrices. A long-lived session that builds one
// snapshot per batch therefore reaches a steady state where Build performs
// no heap allocation beyond the Active/TweetIdx index slices that escape
// into the caller's results.
//
// Everything else the returned Snapshot points at — the Graph, its
// matrices, and the Corpus — aliases the builder's internal buffers and
// is only valid until the next Build call. Callers that need an owning
// snapshot use BuildSnapshot (which dedicates a fresh builder per call).
// A builder is not safe for concurrent use.
type SnapshotBuilder struct {
	userPos []int32
	remap   []int32
	users   []User
	tweets  []Tweet
	compact Corpus

	// Graph-construction arena.
	docs  [][]string
	owner []int
	fs    text.FeatureScratch
	xp    *sparse.CSR
	xu    *sparse.CSR
	xr    *sparse.CSR
	gu    *sparse.CSR
	coo   sparse.COO
	graph Graph
	snap  Snapshot
}

// Build slices c to tweets with Time in [from, to) and builds its
// tripartite graph with a shared vocabulary (required so Sf(t) matrices
// are comparable across snapshots) and users renumbered to the active set.
//
// The returned Snapshot's Active and TweetIdx slices are freshly
// allocated; the Snapshot itself, its Graph/matrices and its Corpus alias
// the builder's internal buffers and are only valid until the next Build.
func (b *SnapshotBuilder) Build(c *Corpus, from, to int, vocab *text.Vocabulary, w text.Weighting) *Snapshot {
	var tweetIdx []int
	tweetIdx, b.tweets, b.remap = c.cutWindow(from, to, b.tweets, b.remap)

	// Number active users by first appearance, then in sorted order.
	for len(b.userPos) < len(c.Users) {
		b.userPos = append(b.userPos, -1)
	}
	na := int32(0)
	for i := range b.tweets {
		if u := b.tweets[i].User; b.userPos[u] < 0 {
			b.userPos[u] = na
			na++
		}
	}
	active := make([]int, na)
	for i := range b.tweets {
		active[b.userPos[b.tweets[i].User]] = b.tweets[i].User
	}
	sort.Ints(active)

	// Re-home tweets onto local user indices in a compacted corpus copy
	// backed by the builder's reusable buffers.
	b.users = b.users[:0]
	for i, g := range active {
		b.userPos[g] = int32(i)
		b.users = append(b.users, c.Users[g])
	}
	for i := range b.tweets {
		b.tweets[i].User = int(b.userPos[b.tweets[i].User])
	}
	for _, g := range active {
		b.userPos[g] = -1
	}
	b.compact = Corpus{Users: b.users, Tweets: b.tweets}

	b.buildGraphInto(vocab, w)
	b.snap = Snapshot{Graph: &b.graph, Active: active, TweetIdx: tweetIdx, Corpus: &b.compact}
	return &b.snap
}

// buildGraphInto is the graph construction — the only one: Build runs it on
// a builder of its own — over the builder's compacted corpus, emitting every
// matrix into the builder's reusable CSR backing.
func (b *SnapshotBuilder) buildGraphInto(vocab *text.Vocabulary, w text.Weighting) {
	c := &b.compact
	n, m := c.NumTweets(), c.NumUsers()

	b.docs = b.docs[:0]
	for i := range c.Tweets {
		b.docs = append(b.docs, c.Tweets[i].Tokens)
	}
	b.xp = b.fs.DocFeatureMatrixInto(b.xp, b.docs, vocab, w)

	b.owner = b.owner[:0]
	for i := range c.Tweets {
		b.owner = append(b.owner, c.Tweets[i].User)
	}
	b.xu = b.fs.UserFeatureMatrixInto(b.xu, b.xp, b.owner, m)

	b.coo.Reset(m, n)
	for i, tw := range c.Tweets {
		b.coo.Add(tw.User, i, 1)
		if tw.RetweetOf >= 0 {
			b.coo.Add(tw.User, tw.RetweetOf, 1)
		}
	}
	b.xr = b.coo.ToCSRInto(b.xr)
	// A user either interacted with a tweet or did not: clamp the
	// accumulated incidence counts (posted + retweeted sums to 2) to 1.
	b.xr.FillValues(1)

	b.coo.Reset(m, m)
	for _, tw := range c.Tweets {
		if tw.RetweetOf >= 0 {
			orig := c.Tweets[tw.RetweetOf]
			// The retweeting user connects to the original author in the
			// user–user graph (both directions; the Laplacian regularizer
			// treats Gu as undirected).
			if orig.User != tw.User {
				b.coo.Add(tw.User, orig.User, 1)
				b.coo.Add(orig.User, tw.User, 1)
			}
		}
	}
	b.gu = b.coo.ToCSRInto(b.gu)

	b.graph = Graph{Xp: b.xp, Xu: b.xu, Xr: b.xr, Gu: b.gu, Vocab: vocab}
}

// BuildSnapshot is the one-shot convenience over SnapshotBuilder.Build;
// its Snapshot owns all of its memory (the builder is dedicated to it and
// never reused).
func BuildSnapshot(c *Corpus, from, to int, vocab *text.Vocabulary, w text.Weighting) *Snapshot {
	b := new(SnapshotBuilder)
	s := b.Build(c, from, to, vocab, w)
	// Detach the corpus from the transient builder so the snapshot
	// outlives any accidental reuse.
	s.Corpus = &Corpus{
		Users:  append([]User(nil), b.users...),
		Tweets: append([]Tweet(nil), b.tweets...),
	}
	return s
}

// SnapshotSeries builds one snapshot per timestamp step in [lo, hi] using
// a single vocabulary constructed from the whole corpus (minDF applied
// globally). step is the window width in time units (1 = per day).
// Empty windows produce snapshots with zero tweets.
func SnapshotSeries(c *Corpus, step, minDF int, w text.Weighting) []*Snapshot {
	lo, hi, ok := c.TimeRange()
	if !ok {
		return nil
	}
	if step < 1 {
		step = 1
	}
	if minDF < 1 {
		minDF = 1
	}
	vocab := text.BuildVocabulary(c.TokenDocs(), minDF)
	var out []*Snapshot
	for t := lo; t <= hi; t += step {
		out = append(out, BuildSnapshot(c, t, t+step, vocab, w))
	}
	return out
}
