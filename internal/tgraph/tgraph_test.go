package tgraph

import (
	"reflect"
	"testing"

	"triclust/internal/text"
)

// tiny corpus: 2 users, 3 tweets, tweet 2 retweets tweet 0.
func tinyCorpus() *Corpus {
	return &Corpus{
		Users: []User{{Name: "alice", Label: 0}, {Name: "bob", Label: 1}},
		Tweets: []Tweet{
			{Tokens: []string{"yeson37", "label"}, User: 0, Time: 1, RetweetOf: -1, Label: 0},
			{Tokens: []string{"noprop37", "cost"}, User: 1, Time: 1, RetweetOf: -1, Label: 1},
			{Tokens: []string{"yeson37"}, User: 1, Time: 2, RetweetOf: 0, Label: 0},
		},
	}
}

func TestValidateOK(t *testing.T) {
	if err := tinyCorpus().Validate(); err != nil {
		t.Fatalf("Validate = %v", err)
	}
}

func TestValidateBadUser(t *testing.T) {
	c := tinyCorpus()
	c.Tweets[0].User = 9
	if err := c.Validate(); err == nil {
		t.Fatal("expected error for bad user index")
	}
}

func TestValidateSelfRetweet(t *testing.T) {
	c := tinyCorpus()
	c.Tweets[1].RetweetOf = 1
	if err := c.Validate(); err == nil {
		t.Fatal("expected error for self retweet")
	}
}

func TestTimeRange(t *testing.T) {
	lo, hi, ok := tinyCorpus().TimeRange()
	if !ok || lo != 1 || hi != 2 {
		t.Fatalf("TimeRange = %d,%d,%v", lo, hi, ok)
	}
	if _, _, ok := (&Corpus{}).TimeRange(); ok {
		t.Fatal("empty corpus should report !ok")
	}
}

func TestTokenizeFillsOnlyNil(t *testing.T) {
	c := &Corpus{
		Users: []User{{}},
		Tweets: []Tweet{
			{Text: "Support #prop37 now", User: 0, RetweetOf: -1},
			{Tokens: []string{"preset"}, Text: "ignored text", User: 0, RetweetOf: -1},
		},
	}
	c.Tokenize(text.NewTokenizer(text.DefaultTokenizerOptions()))
	if !reflect.DeepEqual(c.Tweets[0].Tokens, []string{"support", "prop37"}) {
		t.Fatalf("tokens = %v", c.Tweets[0].Tokens)
	}
	if !reflect.DeepEqual(c.Tweets[1].Tokens, []string{"preset"}) {
		t.Fatal("preset tokens overwritten")
	}
}

func TestLabelVectors(t *testing.T) {
	c := tinyCorpus()
	if !reflect.DeepEqual(c.TweetLabels(), []int{0, 1, 0}) {
		t.Fatalf("TweetLabels = %v", c.TweetLabels())
	}
	if !reflect.DeepEqual(c.UserLabels(), []int{0, 1}) {
		t.Fatalf("UserLabels = %v", c.UserLabels())
	}
}

func TestSliceRemapsTweetsAndRetweets(t *testing.T) {
	c := tinyCorpus()
	sub, idx := c.Slice(2, 3)
	if len(sub.Tweets) != 1 || idx[0] != 2 {
		t.Fatalf("Slice returned %d tweets, idx %v", len(sub.Tweets), idx)
	}
	// tweet 2's retweet target (0) is outside the window → dropped.
	if sub.Tweets[0].RetweetOf != -1 {
		t.Fatalf("RetweetOf = %d, want -1", sub.Tweets[0].RetweetOf)
	}

	both, _ := c.Slice(1, 3)
	if len(both.Tweets) != 3 {
		t.Fatalf("full slice = %d tweets", len(both.Tweets))
	}
	if both.Tweets[2].RetweetOf != 0 {
		t.Fatalf("in-window retweet should remap, got %d", both.Tweets[2].RetweetOf)
	}
}

// TestSliceByDayIsAnOnlineBatch walks a corpus the way cmd/triclust -online
// and examples/election do, one Slice(day, day+1) a batch: a same-day retweet
// keeps its target as a batch-local index, a target posted on another day
// becomes -1, and ground truth follows the returned index map. (Both callers
// used to set RetweetOf = -1 on every tweet, which ran Algorithm 2 without a
// single retweet edge.)
func TestSliceByDayIsAnOnlineBatch(t *testing.T) {
	c := tinyCorpus()
	// Day 2 gains a second tweet that retweets the day's first (corpus index
	// 2), which itself retweets day 1's tweet 0.
	c.Tweets = append(c.Tweets, Tweet{Tokens: []string{"label"}, User: 0, Time: 2, RetweetOf: 2, Label: 1})
	truth := c.TweetLabels()

	day1, idx1 := c.Slice(1, 2)
	if !reflect.DeepEqual(idx1, []int{0, 1}) || day1.Tweets[0].RetweetOf != -1 || day1.Tweets[1].RetweetOf != -1 {
		t.Fatalf("day 1: index map %v, tweets %+v", idx1, day1.Tweets)
	}
	day2, idx2 := c.Slice(2, 3)
	if !reflect.DeepEqual(idx2, []int{2, 3}) {
		t.Fatalf("day 2: index map %v, want [2 3]", idx2)
	}
	if got := day2.Tweets[0].RetweetOf; got != -1 {
		t.Fatalf("cross-day retweet target = %d, want -1", got)
	}
	if got := day2.Tweets[1].RetweetOf; got != 0 {
		t.Fatalf("same-day retweet target = %d, want the batch-local 0", got)
	}
	for i, g := range idx2 {
		if day2.Tweets[i].Label != truth[g] {
			t.Fatalf("batch tweet %d carries label %d, corpus tweet %d has %d", i, day2.Tweets[i].Label, g, truth[g])
		}
	}
	if err := day2.Validate(); err != nil {
		t.Fatalf("a day's slice is not a valid batch: %v", err)
	}
}

func TestActiveUsers(t *testing.T) {
	c := tinyCorpus()
	if !reflect.DeepEqual(c.ActiveUsers(), []int{0, 1}) {
		t.Fatalf("ActiveUsers = %v", c.ActiveUsers())
	}
	sub, _ := c.Slice(2, 3)
	if !reflect.DeepEqual(sub.ActiveUsers(), []int{1}) {
		t.Fatalf("sliced ActiveUsers = %v", sub.ActiveUsers())
	}
}

func TestCategorizeUsers(t *testing.T) {
	newU, evolving, disappeared := CategorizeUsers([]int{1, 2, 3}, []int{2, 3, 4})
	if !reflect.DeepEqual(newU, []int{4}) {
		t.Fatalf("new = %v", newU)
	}
	if !reflect.DeepEqual(evolving, []int{2, 3}) {
		t.Fatalf("evolving = %v", evolving)
	}
	if !reflect.DeepEqual(disappeared, []int{1}) {
		t.Fatalf("disappeared = %v", disappeared)
	}
}

func TestCategorizeUsersEmptyPrev(t *testing.T) {
	newU, evolving, disappeared := CategorizeUsers(nil, []int{0, 1})
	if len(newU) != 2 || len(evolving) != 0 || len(disappeared) != 0 {
		t.Fatalf("got %v %v %v", newU, evolving, disappeared)
	}
}

func TestBuildShapes(t *testing.T) {
	g := Build(tinyCorpus(), BuildOptions{Weighting: text.TF, MinDF: 1})
	if g.Xp.Rows() != 3 || g.Xp.Cols() != g.Vocab.Len() {
		t.Fatalf("Xp %dx%d", g.Xp.Rows(), g.Xp.Cols())
	}
	if g.Xu.Rows() != 2 || g.Xu.Cols() != g.Vocab.Len() {
		t.Fatalf("Xu %dx%d", g.Xu.Rows(), g.Xu.Cols())
	}
	if g.Xr.Rows() != 2 || g.Xr.Cols() != 3 {
		t.Fatalf("Xr %dx%d", g.Xr.Rows(), g.Xr.Cols())
	}
	if g.Gu.Rows() != 2 || g.Gu.Cols() != 2 {
		t.Fatalf("Gu %dx%d", g.Gu.Rows(), g.Gu.Cols())
	}
}

func TestBuildContent(t *testing.T) {
	g := Build(tinyCorpus(), BuildOptions{Weighting: text.TF, MinDF: 1})
	jYes := g.Vocab.ID("yeson37")
	jNo := g.Vocab.ID("noprop37")
	if jYes < 0 || jNo < 0 {
		t.Fatal("vocabulary missing planted words")
	}
	if g.Xp.At(0, jYes) != 1 || g.Xp.At(1, jNo) != 1 {
		t.Fatal("Xp misses token counts")
	}
	// User 1 posted tweets 1 and 2 → features of both.
	if g.Xu.At(1, jNo) != 1 || g.Xu.At(1, jYes) != 1 {
		t.Fatalf("Xu aggregation wrong: %v", g.Xu.ToDense())
	}
	// Xr: user1 interacted with tweets 1, 2 and (via retweet) 0.
	if g.Xr.At(1, 0) != 1 || g.Xr.At(1, 1) != 1 || g.Xr.At(1, 2) != 1 {
		t.Fatalf("Xr wrong: %v", g.Xr.ToDense())
	}
	if g.Xr.At(0, 0) != 1 || g.Xr.At(0, 1) != 0 {
		t.Fatalf("Xr row0 wrong: %v", g.Xr.ToDense())
	}
	// Gu: symmetric edge between user 1 (retweeter) and user 0 (author).
	if g.Gu.At(0, 1) != 1 || g.Gu.At(1, 0) != 1 {
		t.Fatalf("Gu wrong: %v", g.Gu.ToDense())
	}
	if g.Gu.At(0, 0) != 0 {
		t.Fatal("Gu self loop")
	}
}

func TestBuildXrBinaryEvenWithRepeats(t *testing.T) {
	c := tinyCorpus()
	// Duplicate the retweet so user 1 touches tweet 0 twice.
	c.Tweets = append(c.Tweets, Tweet{Tokens: []string{"yeson37"}, User: 1, Time: 3, RetweetOf: 0, Label: 0})
	g := Build(c, BuildOptions{Weighting: text.TF, MinDF: 1})
	if g.Xr.At(1, 0) != 1 {
		t.Fatalf("Xr not binary: %v", g.Xr.At(1, 0))
	}
	// Gu accumulates interaction counts instead.
	if g.Gu.At(1, 0) != 2 {
		t.Fatalf("Gu weight = %v, want 2", g.Gu.At(1, 0))
	}
}

func TestBuildSharedVocab(t *testing.T) {
	fixed := text.NewVocabulary()
	fixed.AddWord("yeson37")
	g := Build(tinyCorpus(), BuildOptions{Weighting: text.TF, Vocab: fixed})
	if g.Vocab.Len() != 1 {
		t.Fatalf("vocab not shared: %d words", g.Vocab.Len())
	}
	if g.Xp.Cols() != 1 {
		t.Fatalf("Xp cols = %d", g.Xp.Cols())
	}
}

func TestBuildMinDFPrunes(t *testing.T) {
	g := Build(tinyCorpus(), BuildOptions{Weighting: text.TF, MinDF: 2})
	// Only "yeson37" appears in ≥ 2 tweets.
	if g.Vocab.Len() != 1 || g.Vocab.ID("yeson37") < 0 {
		t.Fatalf("minDF pruning wrong: %v", g.Vocab.Words())
	}
}

func TestBuildEmptyCorpus(t *testing.T) {
	g := Build(&Corpus{}, BuildOptions{Weighting: text.TFIDF, MinDF: 2})
	if g.Xp.Rows() != 0 || g.Xu.Rows() != 0 || g.Xr.NNZ() != 0 || g.Gu.NNZ() != 0 {
		t.Fatal("empty corpus should yield empty graph")
	}
}
