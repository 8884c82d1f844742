// Package tgraph defines the corpus data model and builds the tripartite
// graph of the paper: the tweet–feature matrix Xp, user–feature matrix Xu,
// user–tweet matrix Xr and user–user retweet graph Gu, plus the temporal
// snapshot machinery (time slicing, new/evolving/disappeared user
// categorization) required by the online framework.
package tgraph

import (
	"fmt"
	"slices"
	"sort"

	"triclust/internal/text"
)

// NoLabel marks a tweet or user without ground-truth sentiment.
const NoLabel = -1

// Tweet is the paper's triple p = <x, u, t> plus optional provenance.
type Tweet struct {
	// Text is the raw tweet body; Tokens, if non-nil, overrides
	// tokenization (the synthetic generator emits tokens directly).
	Text   string
	Tokens []string
	// User is the index of the posting (or retweeting) user.
	User int
	// Time is the integer timestamp (the experiments use days).
	Time int
	// RetweetOf is the index of the original tweet when this tweet is a
	// retweet, or -1.
	RetweetOf int
	// Label is the ground-truth sentiment class (Pos/Neg/Neu) or NoLabel.
	Label int
}

// User carries per-user metadata.
type User struct {
	Name string
	// Label is the ground-truth user-level sentiment or NoLabel.
	Label int
}

// Corpus is a topic-focused collection of tweets and users.
type Corpus struct {
	Tweets []Tweet
	Users  []User
}

// NumTweets returns n.
func (c *Corpus) NumTweets() int { return len(c.Tweets) }

// NumUsers returns m.
func (c *Corpus) NumUsers() int { return len(c.Users) }

// Validate checks referential integrity; it returns the first problem found.
func (c *Corpus) Validate() error {
	m, n := len(c.Users), len(c.Tweets)
	for i, tw := range c.Tweets {
		if tw.User < 0 || tw.User >= m {
			return fmt.Errorf("tgraph: tweet %d references user %d of %d", i, tw.User, m)
		}
		if tw.RetweetOf >= n {
			return fmt.Errorf("tgraph: tweet %d retweets %d of %d", i, tw.RetweetOf, n)
		}
		if tw.RetweetOf == i {
			return fmt.Errorf("tgraph: tweet %d retweets itself", i)
		}
	}
	return nil
}

// TimeRange returns the minimum and maximum tweet timestamps. ok is false
// for an empty corpus.
func (c *Corpus) TimeRange() (lo, hi int, ok bool) {
	if len(c.Tweets) == 0 {
		return 0, 0, false
	}
	lo, hi = c.Tweets[0].Time, c.Tweets[0].Time
	for _, tw := range c.Tweets[1:] {
		if tw.Time < lo {
			lo = tw.Time
		}
		if tw.Time > hi {
			hi = tw.Time
		}
	}
	return lo, hi, true
}

// Tokenize fills Tweet.Tokens for every tweet whose Tokens field is nil,
// using the given tokenizer.
func (c *Corpus) Tokenize(tok *text.Tokenizer) {
	for i := range c.Tweets {
		if c.Tweets[i].Tokens == nil {
			c.Tweets[i].Tokens = tok.Tokenize(c.Tweets[i].Text)
		}
	}
}

// TokenDocs returns the token list of every tweet, in order.
func (c *Corpus) TokenDocs() [][]string {
	docs := make([][]string, len(c.Tweets))
	for i := range c.Tweets {
		docs[i] = c.Tweets[i].Tokens
	}
	return docs
}

// TweetLabels returns the per-tweet label vector.
func (c *Corpus) TweetLabels() []int {
	out := make([]int, len(c.Tweets))
	for i := range c.Tweets {
		out[i] = c.Tweets[i].Label
	}
	return out
}

// UserLabels returns the per-user label vector.
func (c *Corpus) UserLabels() []int {
	out := make([]int, len(c.Users))
	for i := range c.Users {
		out[i] = c.Users[i].Label
	}
	return out
}

// Slice returns the sub-corpus of tweets with Time in [from, to), remapped
// to local tweet indices. Users keep their global indices (the online
// algorithm tracks users across snapshots); the returned mapping gives the
// global tweet index of each local tweet. A retweet whose original is not
// in the window (or not in the corpus: Slice does not validate) gets
// RetweetOf -1. The cut is two passes over the corpus, no hashing.
func (c *Corpus) Slice(from, to int) (*Corpus, []int) {
	idx, tweets, _ := c.cutWindow(from, to, nil, nil)
	return &Corpus{Users: c.Users, Tweets: tweets}, idx
}

// cutWindow is the window cut of Slice and SnapshotBuilder.Build: the
// global indices of the tweets with Time in [from, to), allocated at their
// count (nil if none), and the tweets with local retweet targets in dst.
// remap[g-idx[0]] is global tweet g's local index, or -1 if g is not cut.
func (c *Corpus) cutWindow(from, to int, dst []Tweet, remap []int32) ([]int, []Tweet, []int32) {
	n := 0
	for i := range c.Tweets {
		if t := c.Tweets[i].Time; t >= from && t < to {
			n++
		}
	}
	if dst == nil {
		dst = make([]Tweet, 0, n) // Slice's output, at its exact size
	}
	// A reused buffer grows as append would, so a stream of ever larger
	// batches reallocates it a logarithmic number of times.
	if dst = slices.Grow(dst[:0], n)[:n]; n == 0 {
		return nil, dst, remap
	}
	idx := make([]int, 0, n)
	for i := range c.Tweets {
		if t := c.Tweets[i].Time; t >= from && t < to {
			idx = append(idx, i)
		}
	}
	base, span := idx[0], idx[n-1]-idx[0]+1
	remap = slices.Grow(remap[:0], span)[:span]
	for i := range remap {
		remap[i] = -1
	}
	for l, g := range idx {
		remap[g-base] = int32(l)
	}
	for l, g := range idx {
		dst[l] = c.Tweets[g]
		if r := dst[l].RetweetOf; r >= 0 {
			dst[l].RetweetOf = -1 // original fell outside the window
			if o := r - base; o >= 0 && o < span {
				dst[l].RetweetOf = int(remap[o])
			}
		}
	}
	return idx, dst, remap
}

// ActiveUsers returns the sorted global indices of users with at least one
// tweet in the corpus.
func (c *Corpus) ActiveUsers() []int {
	seen := make(map[int]struct{})
	for _, tw := range c.Tweets {
		seen[tw.User] = struct{}{}
	}
	out := make([]int, 0, len(seen))
	for u := range seen {
		out = append(out, u)
	}
	sort.Ints(out)
	return out
}

// UserCategory classifies a user at snapshot t relative to the previous
// window, per §4 of the paper.
type UserCategory int

const (
	// NewUser was not active in the previous window but is active now.
	NewUser UserCategory = iota
	// EvolvingUser was active in both windows.
	EvolvingUser
	// DisappearedUser was active before but posts nothing now.
	DisappearedUser
)

// CategorizeUsers splits users into new / evolving / disappeared given the
// active sets of the previous and current snapshots. The returned slices
// contain sorted global user indices.
func CategorizeUsers(prevActive, curActive []int) (newU, evolving, disappeared []int) {
	prev := make(map[int]struct{}, len(prevActive))
	for _, u := range prevActive {
		prev[u] = struct{}{}
	}
	cur := make(map[int]struct{}, len(curActive))
	for _, u := range curActive {
		cur[u] = struct{}{}
	}
	for _, u := range curActive {
		if _, ok := prev[u]; ok {
			evolving = append(evolving, u)
		} else {
			newU = append(newU, u)
		}
	}
	for _, u := range prevActive {
		if _, ok := cur[u]; !ok {
			disappeared = append(disappeared, u)
		}
	}
	sort.Ints(newU)
	sort.Ints(evolving)
	sort.Ints(disappeared)
	return newU, evolving, disappeared
}
