package triclust_test

import (
	"testing"

	"triclust"
	"triclust/internal/eval"
	"triclust/internal/synth"
)

func demoCorpus(t testing.TB, seed int64) *synth.Dataset {
	t.Helper()
	cfg := synth.DefaultConfig()
	cfg.Seed = seed
	cfg.NumUsers = 60
	cfg.Days = 8
	cfg.ElectionDay = 6
	d, err := synth.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return d
}

// offlineTopic builds a user-less topic on the paper's offline setup (§5.1),
// the configuration FitCorpus is evaluated with; cfg may adjust it.
func offlineTopic(t testing.TB, cfg func(*triclust.Config), opts ...triclust.Option) *triclust.Topic {
	t.Helper()
	c := triclust.DefaultConfig()
	if cfg != nil {
		cfg(&c)
	}
	opts = append([]triclust.Option{triclust.WithSolverConfig(triclust.OnlineConfig{Config: c})}, opts...)
	tp, err := triclust.NewTopic(nil, opts...)
	if err != nil {
		t.Fatalf("NewTopic: %v", err)
	}
	return tp
}

func TestFitEndToEnd(t *testing.T) {
	d := demoCorpus(t, 1)
	res, err := offlineTopic(t, nil).FitCorpus(d.Corpus)
	if err != nil {
		t.Fatalf("FitCorpus: %v", err)
	}
	if len(res.TweetSentiments) != d.Corpus.NumTweets() {
		t.Fatalf("tweet sentiments %d, want %d", len(res.TweetSentiments), d.Corpus.NumTweets())
	}
	if len(res.UserSentiments) != d.Corpus.NumUsers() {
		t.Fatal("user sentiment count wrong")
	}
	if len(res.Vocabulary) == 0 || len(res.FeatureSentiments) != len(res.Vocabulary) {
		t.Fatal("vocabulary / feature sentiment mismatch")
	}
	pred := make([]int, len(res.TweetSentiments))
	for i, s := range res.TweetSentiments {
		pred[i] = s.Class
		if s.Confidence < 0 || s.Confidence > 1 {
			t.Fatalf("confidence %v out of range", s.Confidence)
		}
	}
	if acc := eval.Accuracy(pred, d.TweetClass); acc < 0.65 {
		t.Fatalf("end-to-end accuracy = %.3f", acc)
	}
	if res.Iterations == 0 {
		t.Fatal("solver did not iterate")
	}
	if res.Raw == nil {
		t.Fatal("raw result missing")
	}
}

func TestFitClassAlignment(t *testing.T) {
	// With the lexicon prior, cluster ids align with Pos/Neg so that a
	// tweet made of strong positive words lands in Pos.
	d := demoCorpus(t, 2)
	res, err := offlineTopic(t, nil).FitCorpus(d.Corpus)
	if err != nil {
		t.Fatal(err)
	}
	var posRight, posTotal int
	for i, s := range res.TweetSentiments {
		if d.TweetClass[i] == triclust.Pos {
			posTotal++
			if s.Class == triclust.Pos {
				posRight++
			}
		}
	}
	if posTotal == 0 {
		t.Skip("no positive tweets")
	}
	if frac := float64(posRight) / float64(posTotal); frac < 0.5 {
		t.Fatalf("class alignment broken: only %.2f of pos tweets labeled Pos", frac)
	}
}

func TestFitNilAndInvalid(t *testing.T) {
	if _, err := offlineTopic(t, nil).FitCorpus(nil); err == nil {
		t.Fatal("expected error for nil corpus")
	}
	bad := &triclust.Corpus{
		Users:  []triclust.User{{}},
		Tweets: []triclust.Tweet{{User: 5, RetweetOf: -1}},
	}
	if _, err := offlineTopic(t, nil).FitCorpus(bad); err == nil {
		t.Fatal("expected error for invalid corpus")
	}
}

func TestFitRawText(t *testing.T) {
	c := &triclust.Corpus{
		Users: []triclust.User{{Name: "a"}, {Name: "b"}},
		Tweets: []triclust.Tweet{
			{Text: "love this great #prop37 win", User: 0, RetweetOf: -1, Label: triclust.NoLabel},
			{Text: "terrible awful scam #noprop37", User: 1, RetweetOf: -1, Label: triclust.NoLabel},
			{Text: "love love great support", User: 0, RetweetOf: -1, Label: triclust.NoLabel},
			{Text: "bad awful lies and fear", User: 1, RetweetOf: -1, Label: triclust.NoLabel},
		},
	}
	res, err := offlineTopic(t, func(c *triclust.Config) { c.MaxIter = 30 },
		triclust.WithMinDF(1)).FitCorpus(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TweetSentiments) != 4 {
		t.Fatal("wrong tweet count")
	}
	// The two users should end in different classes.
	if res.UserSentiments[0].Class == res.UserSentiments[1].Class {
		t.Fatalf("users not separated: %+v", res.UserSentiments)
	}
	if res.UserSentiments[0].Class != triclust.Pos {
		t.Fatalf("positive user classed %s", triclust.ClassName(res.UserSentiments[0].Class))
	}
}

func TestStreamProcess(t *testing.T) {
	d := demoCorpus(t, 3)
	st, err := triclust.NewTopic(d.Corpus.Users)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, _ := d.Corpus.TimeRange()
	var processed int
	for day := lo; day <= hi; day++ {
		// A day's slice keeps its same-day retweet edges, batch-local.
		sub, _ := d.Corpus.Slice(day, day+1)
		batch := sub.Tweets
		if len(batch) == 0 {
			continue
		}
		out, err := st.Process(day, batch)
		if err != nil {
			t.Fatalf("Process day %d: %v", day, err)
		}
		if len(out.TweetSentiments) != len(batch) {
			t.Fatal("batch sentiment count wrong")
		}
		if len(out.ActiveUsers) != len(out.UserSentiments) {
			t.Fatal("active user mapping wrong")
		}
		processed++
	}
	if processed < 3 {
		t.Fatalf("only %d batches processed", processed)
	}
	// A user seen in the stream has an estimate.
	est, ok := st.UserEstimate(d.Corpus.Tweets[0].User)
	if !ok {
		t.Fatal("no estimate for an active user")
	}
	if est.Confidence < 0 || est.Confidence > 1 {
		t.Fatalf("estimate confidence %v", est.Confidence)
	}
	if _, ok := st.UserEstimate(len(d.Corpus.Users) + 5); ok {
		t.Fatal("estimate for out-of-range user")
	}
}

func TestStreamRejectsBadBatch(t *testing.T) {
	st, err := triclust.NewTopic([]triclust.User{{}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = st.Process(0, []triclust.Tweet{{User: 7, RetweetOf: -1}})
	if err == nil {
		t.Fatal("expected validation error")
	}
}

func TestClassName(t *testing.T) {
	if triclust.ClassName(triclust.Pos) != "positive" ||
		triclust.ClassName(triclust.Neg) != "negative" ||
		triclust.ClassName(triclust.Neu) != "neutral" ||
		triclust.ClassName(7) != "class7" {
		t.Fatal("ClassName wrong")
	}
}

func TestInduceLexiconExported(t *testing.T) {
	lex := triclust.InduceLexicon(
		[][]string{{"goodword"}, {"goodword"}, {"badword"}, {"badword"}},
		[]int{triclust.Pos, triclust.Pos, triclust.Neg, triclust.Neg}, 1, 1.5)
	if c, ok := lex.Class("goodword"); !ok || c != triclust.Pos {
		t.Fatal("induced lexicon wrong")
	}
	if triclust.BuiltinLexicon().Len() == 0 {
		t.Fatal("builtin lexicon empty")
	}
}

func TestPredictTweetsFoldIn(t *testing.T) {
	d := demoCorpus(t, 5)
	// Seed the topic lexicon, as the paper seeds Sf0 from its
	// automatically built "Yes"/"No" lists; without topic words the Neg
	// cluster has no anchor in a synthetic corpus.
	lex := d.PlantedLexicon(0.4, 0, 1)
	lex.Merge(triclust.BuiltinLexicon())
	tp := offlineTopic(t, nil, triclust.WithLexicon(lex))
	if _, err := tp.FitCorpus(d.Corpus); err != nil {
		t.Fatal(err)
	}
	preds, err := tp.Predict([]string{
		"yeson37 labelgmo health safe",
		"corn farmer noprop37 crop",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 2 {
		t.Fatalf("got %d predictions", len(preds))
	}
	if preds[0].Class != triclust.Pos {
		t.Fatalf("pos probe classed %s", triclust.ClassName(preds[0].Class))
	}
	if preds[1].Class != triclust.Neg {
		t.Fatalf("neg probe classed %s", triclust.ClassName(preds[1].Class))
	}
}

func TestPredictTweetsOOVIsGraceful(t *testing.T) {
	d := demoCorpus(t, 6)
	tp := offlineTopic(t, nil)
	if _, err := tp.FitCorpus(d.Corpus); err != nil {
		t.Fatal(err)
	}
	preds, err := tp.Predict([]string{"zzzunknownzzz qqqneverseen"})
	if err != nil {
		t.Fatal(err)
	}
	if preds[0].Confidence < 0 || preds[0].Confidence > 1 {
		t.Fatalf("OOV confidence %v", preds[0].Confidence)
	}
}

func TestFitCustomOptionsRespected(t *testing.T) {
	d := demoCorpus(t, 7)
	res, err := offlineTopic(t, func(c *triclust.Config) { c.K, c.MaxIter = 2, 8 },
		triclust.WithLexiconHit(0.9)).FitCorpus(d.Corpus)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > 8 {
		t.Fatalf("MaxIter ignored: %d iterations", res.Iterations)
	}
	for _, s := range res.TweetSentiments {
		if s.Class > 1 {
			t.Fatalf("k=2 produced class %d", s.Class)
		}
	}
}

func TestStreamEmptyBatch(t *testing.T) {
	st, err := triclust.NewTopic([]triclust.User{{Name: "u"}})
	if err != nil {
		t.Fatal(err)
	}
	out, err := st.Process(0, nil)
	if err != nil {
		t.Fatalf("empty batch should not error: %v", err)
	}
	if !out.Skipped {
		t.Fatal("empty batch not marked Skipped")
	}
	if len(out.TweetSentiments) != 0 || len(out.ActiveUsers) != 0 {
		t.Fatal("empty batch produced sentiments")
	}
	if len(out.Vocabulary) != 0 {
		t.Fatal("empty batch froze a vocabulary")
	}
	// The skipped step consumed neither the timestamp nor the vocabulary
	// freeze: the first *real* batch still defines both.
	real, err := st.Process(0, []triclust.Tweet{
		{Text: "love great win support", User: 0, RetweetOf: -1, Label: triclust.NoLabel},
		{Text: "love great hate awful", User: 0, RetweetOf: -1, Label: triclust.NoLabel},
	})
	if err != nil {
		t.Fatalf("real batch after skip: %v", err)
	}
	if real.Skipped || len(real.TweetSentiments) != 2 {
		t.Fatal("real batch mislabeled after skip")
	}
	if len(real.Vocabulary) == 0 {
		t.Fatal("vocabulary not frozen from the first real batch")
	}
}

func TestStreamZeroValueOptions(t *testing.T) {
	// Every option left at its zero value must be filled with defaults, not
	// crash (the zero Weighting is TF, the zero tokenizer keeps every token).
	st, err := triclust.NewTopic([]triclust.User{{Name: "u"}},
		triclust.WithSolverConfig(triclust.OnlineConfig{}), triclust.WithLexicon(nil),
		triclust.WithLexiconHit(0), triclust.WithWeighting(0), triclust.WithMinDF(0),
		triclust.WithTokenizer(triclust.TokenizerOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	_, err = st.Process(0, []triclust.Tweet{
		{Text: "love this great thing", User: 0, RetweetOf: -1, Label: triclust.NoLabel},
		{Text: "hate this awful thing", User: 0, RetweetOf: -1, Label: triclust.NoLabel},
	})
	if err != nil {
		t.Fatalf("zero-options stream failed: %v", err)
	}
}
