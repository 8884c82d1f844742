package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"triclust/internal/synth"
	"triclust/internal/tgraph"
)

func tweetKey(tw tgraph.Tweet) string {
	return fmt.Sprintf("%d|%d|%s", tw.Time, tw.User, strings.Join(tw.Tokens, " "))
}

func sortSentiments(s []Sentiment) {
	sort.Slice(s, func(a, b int) bool {
		if s[a].Class != s[b].Class {
			return s[a].Class < s[b].Class
		}
		return s[a].Confidence < s[b].Confidence
	})
}

func testDataset(t testing.TB, seed int64) *synth.Dataset {
	t.Helper()
	cfg := synth.DefaultConfig()
	cfg.Seed = seed
	cfg.NumUsers = 40
	cfg.Days = 6
	cfg.ElectionDay = 4
	d, err := synth.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return d
}

func dayBatch(d *synth.Dataset, day int) []tgraph.Tweet {
	var batch []tgraph.Tweet
	for _, tw := range d.Corpus.Tweets {
		if tw.Time == day {
			tw.RetweetOf = -1
			batch = append(batch, tw)
		}
	}
	return batch
}

func fastConfig() Config {
	cfg := Config{}
	cfg = cfg.withDefaults()
	cfg.Online.MaxIter = 12
	return cfg
}

func TestFitCorpusPipeline(t *testing.T) {
	d := testDataset(t, 1)
	m := NewModel(fastConfig())
	out, err := m.FitCorpus(d.Corpus)
	if err != nil {
		t.Fatalf("FitCorpus: %v", err)
	}
	if len(out.TweetSentiments) != d.Corpus.NumTweets() {
		t.Fatalf("tweet sentiments %d, want %d", len(out.TweetSentiments), d.Corpus.NumTweets())
	}
	if len(out.UserSentiments) != d.Corpus.NumUsers() {
		t.Fatal("user sentiment count wrong")
	}
	if v := m.Vocabulary(); v == nil || len(out.FeatureSentiments) != v.Len() {
		t.Fatal("vocabulary not frozen or feature sentiment mismatch")
	}
	if m.Prior() == nil {
		t.Fatal("prior not built")
	}
	for _, s := range out.TweetSentiments {
		if s.Confidence < 0 || s.Confidence > 1 {
			t.Fatalf("confidence %v out of range", s.Confidence)
		}
	}
}

// TestPriorBuiltOncePerVocabulary asserts the Sf0 prior is cached: the
// accessor is pointer-stable and allocation-free after the freeze.
func TestPriorBuiltOncePerVocabulary(t *testing.T) {
	d := testDataset(t, 2)
	m := NewModel(fastConfig())
	sess := m.NewSession(d.Corpus.Users)
	if m.Prior() != nil {
		t.Fatal("prior exists before vocabulary freeze")
	}
	day := 0
	for ; day < 6; day++ {
		if len(dayBatch(d, day)) > 0 {
			break
		}
	}
	if _, err := sess.Process(day, dayBatch(d, day)); err != nil {
		t.Fatal(err)
	}
	p1 := m.Prior()
	if p1 == nil {
		t.Fatal("prior missing after first batch")
	}
	if avg := testing.AllocsPerRun(100, func() {
		if m.Prior() != p1 {
			t.Fatal("prior rebuilt")
		}
	}); avg != 0 {
		t.Fatalf("Prior allocates %.1f times per call", avg)
	}
	// The session's problem skeleton must carry exactly the cached prior.
	if sess.prob.Sf0 != p1 {
		t.Fatal("session problem does not reuse the cached prior")
	}
	if _, err := sess.Process(day+1, dayBatch(d, day+1)); err != nil {
		t.Fatal(err)
	}
	if m.Prior() != p1 {
		t.Fatal("prior rebuilt on second batch")
	}
	if sess.prob.Sf0 != p1 {
		t.Fatal("second batch did not reuse the cached prior")
	}
}

// TestSessionEmptyBatchIsNoOp asserts an empty batch neither freezes the
// vocabulary nor consumes the timestamp.
func TestSessionEmptyBatchIsNoOp(t *testing.T) {
	d := testDataset(t, 3)
	m := NewModel(fastConfig())
	sess := m.NewSession(d.Corpus.Users)
	out, err := sess.Process(0, nil)
	if err != nil {
		t.Fatalf("empty batch errored: %v", err)
	}
	if !out.Skipped {
		t.Fatal("empty batch not marked skipped")
	}
	if len(out.TweetSentiments) != 0 || len(out.Active) != 0 {
		t.Fatal("empty batch produced sentiments")
	}
	if m.Vocabulary() != nil {
		t.Fatal("empty batch froze the vocabulary")
	}
	if v := sess.BuildView(nil, nil, 0); v.Skips != 1 || v.Batches != 0 {
		t.Fatalf("counters: skipped=%d batches=%d", v.Skips, v.Batches)
	}
	// The same timestamp is still available to a later real batch.
	day := 0
	var batch []tgraph.Tweet
	for ; day < 6; day++ {
		if batch = dayBatch(d, day); len(batch) > 0 {
			break
		}
	}
	out, err = sess.Process(0, batch)
	if err != nil {
		t.Fatalf("batch after skip errored: %v", err)
	}
	if out.Skipped || len(out.TweetSentiments) != len(batch) {
		t.Fatal("real batch mislabeled after skip")
	}
	if v := m.Vocabulary(); v == nil || v.Len() == 0 {
		t.Fatal("vocabulary not frozen from first real batch")
	}
}

// TestSessionOrderIndependence processes the same batches through two
// fresh sessions, one with tweets permuted, and requires identical
// per-input-tweet results.
func TestSessionOrderIndependence(t *testing.T) {
	d := testDataset(t, 4)
	mA := NewModel(fastConfig())
	sA := mA.NewSession(d.Corpus.Users)
	mB := NewModel(fastConfig())
	sB := mB.NewSession(d.Corpus.Users)
	rng := rand.New(rand.NewSource(7))

	processed := 0
	for day := 0; day < 6 && processed < 3; day++ {
		batch := dayBatch(d, day)
		if len(batch) == 0 {
			continue
		}
		perm := rng.Perm(len(batch))
		shuffled := make([]tgraph.Tweet, len(batch))
		for i, p := range perm {
			shuffled[p] = batch[i]
		}
		outA, err := sA.Process(day, batch)
		if err != nil {
			t.Fatal(err)
		}
		outB, err := sB.Process(day, shuffled)
		if err != nil {
			t.Fatal(err)
		}
		// outA's result for batch[i] must equal outB's for shuffled[perm[i]].
		// Tweets with identical (Time, User, Tokens) are interchangeable,
		// so duplicate groups are compared as multisets.
		groupA, groupB := map[string][]Sentiment{}, map[string][]Sentiment{}
		for i, tw := range batch {
			k := tweetKey(tw)
			groupA[k] = append(groupA[k], outA.TweetSentiments[i])
			groupB[k] = append(groupB[k], outB.TweetSentiments[perm[i]])
		}
		for k, as := range groupA {
			bs := groupB[k]
			sortSentiments(as)
			sortSentiments(bs)
			if len(as) != len(bs) {
				t.Fatalf("day %d group %q: %d vs %d results", day, k, len(as), len(bs))
			}
			for i := range as {
				if as[i] != bs[i] {
					t.Fatalf("day %d group %q: %+v vs %+v under permutation", day, k, as[i], bs[i])
				}
			}
		}
		if len(outA.UserSentiments) != len(outB.UserSentiments) {
			t.Fatal("user sentiment counts differ under permutation")
		}
		for i := range outA.UserSentiments {
			if outA.Active[i] != outB.Active[i] || outA.UserSentiments[i] != outB.UserSentiments[i] {
				t.Fatalf("day %d user row %d differs under permutation", day, i)
			}
		}
		processed++
	}
	if processed < 2 {
		t.Fatalf("only %d days processed", processed)
	}
}

// TestSessionOrderIndependenceWithRetweets covers the canonical-key
// tie-break: two tweets identical in (Time, User, Tokens) but retweeting
// different targets must keep their own results under permutation.
func TestSessionOrderIndependenceWithRetweets(t *testing.T) {
	users := []tgraph.User{{Name: "a"}, {Name: "b"}, {Name: "c"}}
	base := []tgraph.Tweet{
		{Tokens: []string{"love", "win", "great"}, User: 0, Time: 0, RetweetOf: -1, Label: tgraph.NoLabel},
		{Tokens: []string{"hate", "awful", "scam"}, User: 1, Time: 0, RetweetOf: -1, Label: tgraph.NoLabel},
		// Identical content, different retweet targets.
		{Tokens: []string{"agree"}, User: 2, Time: 0, RetweetOf: 0, Label: tgraph.NoLabel},
		{Tokens: []string{"agree"}, User: 2, Time: 0, RetweetOf: 1, Label: tgraph.NoLabel},
	}
	perm := []int{3, 0, 2, 1} // shuffled[perm[i]] = base[i], targets remapped
	shuffled := make([]tgraph.Tweet, len(base))
	for i, p := range perm {
		tw := base[i]
		if tw.RetweetOf >= 0 {
			tw.RetweetOf = perm[tw.RetweetOf]
		}
		shuffled[p] = tw
	}
	cfg := fastConfig()
	cfg.MinDF = 1
	sA := NewModel(cfg).NewSession(users)
	sB := NewModel(cfg).NewSession(users)
	outA, err := sA.Process(0, base)
	if err != nil {
		t.Fatal(err)
	}
	outB, err := sB.Process(0, shuffled)
	if err != nil {
		t.Fatal(err)
	}
	for i := range base {
		if a, b := outA.TweetSentiments[i], outB.TweetSentiments[perm[i]]; a != b {
			t.Fatalf("tweet %d: %+v vs %+v under permutation", i, a, b)
		}
	}
}

// TestSessionsConcurrent runs two sessions of one shared Model from
// separate goroutines (go test -race covers the locking).
func TestSessionsConcurrent(t *testing.T) {
	d := testDataset(t, 5)
	m := NewModel(fastConfig())
	sessions := []*Session{m.NewSession(d.Corpus.Users), m.NewSession(d.Corpus.Users)}

	var wg sync.WaitGroup
	errs := make([]error, len(sessions))
	counts := make([]int, len(sessions))
	for si, sess := range sessions {
		wg.Add(1)
		go func(si int, sess *Session) {
			defer wg.Done()
			for day := 0; day < 6; day++ {
				batch := dayBatch(d, day)
				out, err := sess.Process(day, batch)
				if err != nil {
					errs[si] = err
					return
				}
				if !out.Skipped {
					counts[si]++
				}
			}
		}(si, sess)
	}
	wg.Wait()
	for si, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", si, err)
		}
	}
	if counts[0] < 2 || counts[0] != counts[1] {
		t.Fatalf("batch counts %v", counts)
	}
	// Both sessions share one frozen vocabulary and prior.
	if m.Vocabulary() == nil || m.Prior() == nil {
		t.Fatal("shared artifacts missing")
	}
	if sessions[0].prob.Sf0 != sessions[1].prob.Sf0 {
		t.Fatal("sessions hold different priors")
	}
}

// TestSessionUserEstimate checks history-backed estimates surface through
// the session facade.
func TestSessionUserEstimate(t *testing.T) {
	d := testDataset(t, 6)
	m := NewModel(fastConfig())
	sess := m.NewSession(d.Corpus.Users)
	var seenUser int = -1
	for day := 0; day < 6; day++ {
		batch := dayBatch(d, day)
		if len(batch) == 0 {
			continue
		}
		if _, err := sess.Process(day, batch); err != nil {
			t.Fatal(err)
		}
		if seenUser < 0 {
			seenUser = batch[0].User
		}
	}
	v := sess.BuildView(nil, nil, 0)
	est, ok := v.UserEstimate(seenUser)
	if !ok {
		t.Fatal("no estimate for an active user")
	}
	if est.Confidence < 0 || est.Confidence > 1 {
		t.Fatalf("confidence %v", est.Confidence)
	}
	if _, ok := v.UserEstimate(len(d.Corpus.Users) + 3); ok {
		t.Fatal("estimate for unknown user")
	}
}
