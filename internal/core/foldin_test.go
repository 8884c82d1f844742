package core

import (
	"testing"

	"triclust/internal/eval"
	"triclust/internal/sparse"
	"triclust/internal/text"
	"triclust/internal/tgraph"
)

func TestFoldInTweetsMatchesTraining(t *testing.T) {
	d, g := smallDataset(t, 33)
	p := problemFor(d, g, 3)
	cfg := DefaultConfig()
	cfg.MaxIter = 40
	res, err := FitOffline(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Fold the training tweets back in: accuracy should be in the same
	// ballpark as the fitted assignments.
	sp, err := FoldInTweets(&res.Factors, g.Xp)
	if err != nil {
		t.Fatal(err)
	}
	foldAcc := eval.Accuracy(sp.RowArgMax(), d.TweetClass)
	fitAcc := eval.Accuracy(res.TweetClusters(), d.TweetClass)
	if foldAcc < fitAcc-0.15 {
		t.Fatalf("fold-in accuracy %.3f far below fit accuracy %.3f", foldAcc, fitAcc)
	}
}

func TestFoldInUnseenTweets(t *testing.T) {
	// Fit on the first half of the corpus, fold in the second half.
	d, _ := smallDataset(t, 35)
	lo, hi, _ := d.Corpus.TimeRange()
	mid := (lo + hi) / 2
	trainC, trainIdx := d.Corpus.Slice(lo, mid)
	testC, testIdx := d.Corpus.Slice(mid, hi+1)
	if len(trainIdx) < 50 || len(testIdx) < 50 {
		t.Skip("corpus too small to split")
	}
	g := tgraph.Build(trainC, tgraph.BuildOptions{Weighting: text.TFIDF, MinDF: 2})
	p := problemFor(d, g, 3)
	cfg := DefaultConfig()
	cfg.MaxIter = 40
	res, err := FitOffline(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	xpTest := text.DocFeatureMatrix(testC.TokenDocs(), g.Vocab, text.TFIDF)
	sp, err := FoldInTweets(&res.Factors, xpTest)
	if err != nil {
		t.Fatal(err)
	}
	truth := make([]int, len(testIdx))
	for i, gi := range testIdx {
		truth[i] = d.TweetClass[gi]
	}
	if acc := eval.Accuracy(sp.RowArgMax(), truth); acc < 0.6 {
		t.Fatalf("unseen fold-in accuracy = %.3f", acc)
	}
}

func TestFoldInDimensionMismatch(t *testing.T) {
	d, g := smallDataset(t, 39)
	p := problemFor(d, g, 3)
	cfg := DefaultConfig()
	cfg.MaxIter = 3
	res, err := FitOffline(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FoldInTweets(&res.Factors, sparse.Zeros(2, 1)); err == nil {
		t.Fatal("expected dimension error")
	}
}

func TestFoldInRowsAreDistributions(t *testing.T) {
	d, g := smallDataset(t, 41)
	p := problemFor(d, g, 3)
	cfg := DefaultConfig()
	cfg.MaxIter = 10
	res, err := FitOffline(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := FoldInTweets(&res.Factors, g.Xp)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < sp.Rows(); i++ {
		var sum float64
		for _, v := range sp.Row(i) {
			if v < 0 {
				t.Fatal("negative membership")
			}
			sum += v
		}
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
}
