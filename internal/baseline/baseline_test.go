package baseline

import (
	"testing"

	"triclust/internal/core"
	"triclust/internal/eval"
	"triclust/internal/lexicon"
	"triclust/internal/sparse"
	"triclust/internal/synth"
	"triclust/internal/text"
	"triclust/internal/tgraph"
)

func fixture(t testing.TB, seed int64) (*synth.Dataset, *tgraph.Graph) {
	t.Helper()
	cfg := synth.DefaultConfig()
	cfg.Seed = seed
	cfg.NumUsers = 90
	cfg.Days = 10
	cfg.ElectionDay = 7
	d, err := synth.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	g := tgraph.Build(d.Corpus, tgraph.BuildOptions{Weighting: text.TFIDF, MinDF: 2})
	return d, g
}

func owners(c *tgraph.Corpus) []int {
	out := make([]int, len(c.Tweets))
	for i := range c.Tweets {
		out[i] = c.Tweets[i].User
	}
	return out
}

func TestNaiveBayesLearnsPlantedClasses(t *testing.T) {
	d, g := fixture(t, 1)
	nb := TrainNaiveBayes(g.Xp, d.TweetClass, 3)
	pred := nb.Predict(g.Xp)
	if acc := eval.Accuracy(pred, d.TweetClass); acc < 0.8 {
		t.Fatalf("NB train accuracy = %.3f", acc)
	}
}

func TestNaiveBayesGeneralizes(t *testing.T) {
	d, g := fixture(t, 2)
	// Train on half the tweets, evaluate on the other half.
	train := RevealLabels(d.TweetClass, 0.5, 3)
	nb := TrainNaiveBayes(g.Xp, train, 3)
	pred := nb.Predict(g.Xp)
	heldTruth := make([]int, len(d.TweetClass))
	for i := range heldTruth {
		if train[i] >= 0 {
			heldTruth[i] = -1 // score held-out only
		} else {
			heldTruth[i] = d.TweetClass[i]
		}
	}
	if acc := eval.Accuracy(pred, heldTruth); acc < 0.7 {
		t.Fatalf("NB held-out accuracy = %.3f", acc)
	}
}

func TestNaiveBayesNoLabels(t *testing.T) {
	x := sparse.FromDenseRows([][]float64{{1, 0}, {0, 1}})
	nb := TrainNaiveBayes(x, []int{-1, -1}, 2)
	pred := nb.Predict(x)
	if len(pred) != 2 {
		t.Fatal("prediction length wrong")
	}
}

func TestNaiveBayesLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	TrainNaiveBayes(sparse.Zeros(2, 2), []int{0}, 2)
}

func TestSVMLearnsPlantedClasses(t *testing.T) {
	d, g := fixture(t, 4)
	svm := TrainSVM(g.Xp, d.TweetClass, 3, DefaultSVMOptions())
	pred := svm.Predict(g.Xp)
	if acc := eval.Accuracy(pred, d.TweetClass); acc < 0.8 {
		t.Fatalf("SVM train accuracy = %.3f", acc)
	}
}

func TestSVMEmptyTrainingSet(t *testing.T) {
	x := sparse.FromDenseRows([][]float64{{1, 0}})
	svm := TrainSVM(x, []int{-1}, 2, DefaultSVMOptions())
	if got := svm.Predict(x); len(got) != 1 {
		t.Fatal("predict length wrong")
	}
}

func TestSVMDeterministic(t *testing.T) {
	d, g := fixture(t, 5)
	a := TrainSVM(g.Xp, d.TweetClass, 3, DefaultSVMOptions()).Predict(g.Xp)
	b := TrainSVM(g.Xp, d.TweetClass, 3, DefaultSVMOptions()).Predict(g.Xp)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different SVM predictions")
		}
	}
}

func TestLabelPropagationGraphPath(t *testing.T) {
	// 0 - 1 - 2   3 - 4; label 0 as class 0, 4 as class 1.
	g := sparse.FromDenseRows([][]float64{
		{0, 1, 0, 0, 0},
		{1, 0, 1, 0, 0},
		{0, 1, 0, 0, 0},
		{0, 0, 0, 0, 1},
		{0, 0, 0, 1, 0},
	})
	labels := []int{0, -1, -1, -1, 1}
	pred := LabelPropagationGraph(g, labels, 2, DefaultLPOptions())
	if pred[1] != 0 || pred[2] != 0 {
		t.Fatalf("component A mislabeled: %v", pred)
	}
	if pred[3] != 1 {
		t.Fatalf("component B mislabeled: %v", pred)
	}
}

func TestLabelPropagationGraphUnreachable(t *testing.T) {
	g := sparse.FromDenseRows([][]float64{
		{0, 1, 0},
		{1, 0, 0},
		{0, 0, 0}, // isolated, unlabeled
	})
	pred := LabelPropagationGraph(g, []int{0, -1, -1}, 2, DefaultLPOptions())
	if pred[2] != -1 {
		t.Fatalf("isolated node should stay unlabeled, got %d", pred[2])
	}
}

func TestLabelPropagationBipartiteSharedWords(t *testing.T) {
	// Tweets 0,1 share word 0; tweets 2,3 share word 1. Label 0 and 2.
	x := sparse.FromDenseRows([][]float64{
		{1, 0},
		{1, 0},
		{0, 1},
		{0, 1},
	})
	pred := LabelPropagationBipartite(x, []int{0, -1, 1, -1}, 2, DefaultLPOptions())
	if pred[1] != 0 || pred[3] != 1 {
		t.Fatalf("bipartite LP = %v", pred)
	}
}

func TestLabelPropagationAccuracyGrowsWithLabels(t *testing.T) {
	d, g := fixture(t, 6)
	run := func(frac float64) float64 {
		revealed := RevealLabels(d.TweetClass, frac, 1)
		pred := LabelPropagationBipartite(g.Xp, revealed, 3, DefaultLPOptions())
		return eval.Accuracy(pred, d.TweetClass)
	}
	lp5, lp10 := run(0.05), run(0.10)
	if lp10 < lp5-0.03 {
		t.Fatalf("LP-10 (%.3f) clearly worse than LP-5 (%.3f)", lp10, lp5)
	}
}

func TestRevealLabels(t *testing.T) {
	truth := make([]int, 1000)
	for i := range truth {
		truth[i] = i % 2
	}
	revealed := RevealLabels(truth, 0.1, 7)
	var n int
	for i, c := range revealed {
		if c >= 0 {
			n++
			if c != truth[i] {
				t.Fatal("revealed label differs from truth")
			}
		}
	}
	if n < 60 || n > 140 {
		t.Fatalf("revealed %d of 1000 at frac 0.1", n)
	}
	// Deterministic.
	again := RevealLabels(truth, 0.1, 7)
	for i := range revealed {
		if revealed[i] != again[i] {
			t.Fatal("RevealLabels not deterministic")
		}
	}
	// Hidden truth stays hidden.
	if RevealLabels([]int{-1}, 1, 1)[0] != -1 {
		t.Fatal("unlabeled item revealed")
	}
}

func TestUserRegBothLevels(t *testing.T) {
	d, g := fixture(t, 8)
	revealed := RevealLabels(d.TweetClass, 0.10, 2)
	res := UserReg(g.Xp, revealed, owners(d.Corpus), d.Corpus.NumUsers(), 3, DefaultUserRegOptions())
	if acc := eval.Accuracy(res.TweetClasses, d.TweetClass); acc < 0.6 {
		t.Fatalf("UserReg tweet accuracy = %.3f", acc)
	}
	if acc := eval.Accuracy(res.UserClasses, d.Corpus.UserLabels()); acc < 0.5 {
		t.Fatalf("UserReg user accuracy = %.3f", acc)
	}
}

func TestUserRegClampsSeeds(t *testing.T) {
	d, g := fixture(t, 9)
	revealed := RevealLabels(d.TweetClass, 0.2, 3)
	res := UserReg(g.Xp, revealed, owners(d.Corpus), d.Corpus.NumUsers(), 3, DefaultUserRegOptions())
	for i, c := range revealed {
		if c >= 0 && res.TweetClasses[i] != c {
			t.Fatalf("seed %d drifted from %d to %d", i, c, res.TweetClasses[i])
		}
	}
}

func TestESSARecoversTweetClusters(t *testing.T) {
	d, g := fixture(t, 10)
	lex := d.PlantedLexicon(0.4, 0.05, 11)
	lex.Merge(lexicon.Builtin())
	pred, res, err := ESSA(g.Xp, lex.Sf0(g.Vocab, 3, 0.8), 3, DefaultESSAOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations == 0 {
		t.Fatal("ESSA did not iterate")
	}
	if acc := eval.Accuracy(pred, d.TweetClass); acc < 0.6 {
		t.Fatalf("ESSA accuracy = %.3f", acc)
	}
}

func TestBACGClustersUsers(t *testing.T) {
	d, g := fixture(t, 12)
	pred, _, err := BACG(g.Xu, g.Gu, 3, DefaultBACGOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(pred) != d.Corpus.NumUsers() {
		t.Fatal("BACG prediction length wrong")
	}
	if acc := eval.Accuracy(pred, d.Corpus.UserLabels()); acc < 0.45 {
		t.Fatalf("BACG user accuracy = %.3f (chance ≈ 0.45 at this skew)", acc)
	}
}

func TestMiniBatchAndFullBatchRun(t *testing.T) {
	d, _ := fixture(t, 14)
	lex := d.PlantedLexicon(0.4, 0.05, 11)
	cfg := core.DefaultConfig()
	cfg.MaxIter = 30

	mini, err := MiniBatch(d.Corpus, lex, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(mini) == 0 {
		t.Fatal("mini-batch produced no steps")
	}
	full, err := FullBatch(d.Corpus, lex, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != len(mini) {
		t.Fatalf("driver step counts differ: %d vs %d", len(full), len(mini))
	}
	// Full-batch models grow with time.
	last := full[len(full)-1]
	if last.Result.Sp.Rows() != last.Snapshot.Graph.Xp.Rows() {
		t.Fatal("full-batch result rows mismatch cumulative snapshot")
	}
	if full[0].Result.Sp.Rows() > last.Result.Sp.Rows() {
		t.Fatal("cumulative corpus shrank")
	}
}

func TestOnlineDriverRuns(t *testing.T) {
	d, _ := fixture(t, 15)
	lex := d.PlantedLexicon(0.4, 0.05, 11)
	ocfg := core.DefaultOnlineConfig()
	ocfg.MaxIter = 30
	steps, err := OnlineDriver(d.Corpus, lex, ocfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) == 0 {
		t.Fatal("online driver produced no steps")
	}
	for _, s := range steps {
		if s.Result.Sp.Rows() != s.Snapshot.Graph.Xp.Rows() {
			t.Fatal("online result rows mismatch snapshot")
		}
		if s.NewTweets == 0 {
			t.Fatal("empty snapshot not skipped")
		}
	}
}

func TestKMeansSeparatesObviousClusters(t *testing.T) {
	// Two groups with disjoint feature support.
	x := sparse.FromDenseRows([][]float64{
		{5, 4, 0, 0}, {4, 5, 0, 0}, {6, 5, 0, 0},
		{0, 0, 5, 4}, {0, 0, 4, 5}, {0, 0, 5, 6},
	})
	got := KMeans(x, 2, DefaultKMeansOptions())
	if got[0] != got[1] || got[1] != got[2] {
		t.Fatalf("group A split: %v", got)
	}
	if got[3] != got[4] || got[4] != got[5] {
		t.Fatalf("group B split: %v", got)
	}
	if got[0] == got[3] {
		t.Fatalf("groups merged: %v", got)
	}
}

func TestKMeansOnPlantedCorpus(t *testing.T) {
	d, g := fixture(t, 30)
	pred := KMeans(g.Xp, 3, DefaultKMeansOptions())
	if acc := eval.Accuracy(pred, d.TweetClass); acc < 0.5 {
		t.Fatalf("kmeans accuracy = %.3f", acc)
	}
}

func TestKMeansDegenerateInputs(t *testing.T) {
	if got := KMeans(sparse.Zeros(0, 4), 3, DefaultKMeansOptions()); len(got) != 0 {
		t.Fatal("empty input should return empty")
	}
	// All-zero rows must not crash and all land somewhere valid.
	z := sparse.Zeros(5, 4)
	got := KMeans(z, 2, DefaultKMeansOptions())
	for _, c := range got {
		if c < 0 || c >= 2 {
			t.Fatalf("invalid cluster %d", c)
		}
	}
}

func TestKMeansDeterministicGivenSeed(t *testing.T) {
	d, g := fixture(t, 31)
	_ = d
	a := KMeans(g.Xp, 3, DefaultKMeansOptions())
	b := KMeans(g.Xp, 3, DefaultKMeansOptions())
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed differs")
		}
	}
}
