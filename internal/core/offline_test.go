package core

import (
	"math"
	"testing"

	"triclust/internal/eval"
	"triclust/internal/lexicon"
	"triclust/internal/mat"
	"triclust/internal/sparse"
	"triclust/internal/synth"
	"triclust/internal/text"
	"triclust/internal/tgraph"
)

// smallDataset builds a modest planted corpus and its tripartite graph.
func smallDataset(t testing.TB, seed int64) (*synth.Dataset, *tgraph.Graph) {
	cfg := synth.DefaultConfig()
	cfg.Seed = seed
	cfg.NumUsers = 80
	cfg.Days = 10
	cfg.ElectionDay = 7
	d, err := synth.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	g := tgraph.Build(d.Corpus, tgraph.BuildOptions{Weighting: text.TFIDF, MinDF: 2})
	return d, g
}

func problemFor(d *synth.Dataset, g *tgraph.Graph, k int) *Problem {
	lex := d.PlantedLexicon(0.4, 0.05, 11)
	lex.Merge(lexicon.Builtin())
	return &Problem{
		Xp:  g.Xp,
		Xu:  g.Xu,
		Xr:  g.Xr,
		Gu:  g.Gu,
		Sf0: lex.Sf0(g.Vocab, k, 0.8),
	}
}

func TestFitOfflineRecoversPlantedClusters(t *testing.T) {
	d, g := smallDataset(t, 42)
	p := problemFor(d, g, 3)
	cfg := DefaultConfig()
	cfg.MaxIter = 60
	res, err := FitOffline(p, cfg)
	if err != nil {
		t.Fatalf("FitOffline: %v", err)
	}
	tweetAcc := eval.Accuracy(res.TweetClusters(), d.TweetClass)
	if tweetAcc < 0.70 {
		t.Fatalf("tweet accuracy = %.3f, want ≥ 0.70", tweetAcc)
	}
	userAcc := eval.Accuracy(res.UserClusters(), d.Corpus.UserLabels())
	if userAcc < 0.65 {
		t.Fatalf("user accuracy = %.3f, want ≥ 0.65", userAcc)
	}
}

func TestFitOfflineObjectiveNonIncreasing(t *testing.T) {
	d, g := smallDataset(t, 7)
	p := problemFor(d, g, 3)
	cfg := DefaultConfig()
	cfg.MaxIter = 30
	cfg.Tol = -1 // run all sweeps
	res, err := FitOffline(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) < 10 {
		t.Fatalf("history too short: %d", len(res.History))
	}
	// The multiplicative updates should drive the objective down. The
	// orthogonality Δ-terms make per-sweep monotonicity only approximate
	// (the paper's Figure 8 shows the same component-level wiggles), so
	// allow small excursions of up to 2%. The generated problems of
	// TestOfflineUpdateProperties rise further (property_test.go), so
	// their rise is no tighter bound here.
	for i := 1; i < len(res.History); i++ {
		prev, cur := res.History[i-1].Total, res.History[i].Total
		if cur > prev*1.02 {
			t.Fatalf("objective rose at iter %d: %.4f → %.4f", i, prev, cur)
		}
	}
	first, last := res.History[0].Total, res.History[len(res.History)-1].Total
	if last >= first {
		t.Fatalf("objective did not decrease: %.4f → %.4f", first, last)
	}
}

func TestFitOfflineFactorsStayNonNegativeAndFinite(t *testing.T) {
	d, g := smallDataset(t, 3)
	p := problemFor(d, g, 3)
	cfg := DefaultConfig()
	cfg.MaxIter = 25
	res, err := FitOffline(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]*mat.Dense{
		"Sp": res.Sp, "Su": res.Su, "Sf": res.Sf, "Hp": res.Hp, "Hu": res.Hu,
	} {
		if !m.IsFinite() {
			t.Fatalf("%s has non-finite entries", name)
		}
		for _, v := range m.Data() {
			if v < 0 {
				t.Fatalf("%s has negative entry %v", name, v)
			}
		}
	}
}

func TestFitOfflineConvergesBeforeMaxIter(t *testing.T) {
	d, g := smallDataset(t, 5)
	p := problemFor(d, g, 3)
	cfg := DefaultConfig()
	cfg.MaxIter = 200
	cfg.Tol = 1e-3
	res, err := FitOffline(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge in 200 iterations at tol 1e-3")
	}
	// Paper: r is around 10 to 100.
	if res.Iterations > 150 {
		t.Fatalf("took %d iterations", res.Iterations)
	}
}

func TestFitOfflineDeterministicGivenSeed(t *testing.T) {
	d, g := smallDataset(t, 9)
	p := problemFor(d, g, 3)
	cfg := DefaultConfig()
	cfg.MaxIter = 10
	a, err := FitOffline(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FitOffline(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !mat.Equal(a.Sp, b.Sp, 0) || !mat.Equal(a.Su, b.Su, 0) {
		t.Fatal("same seed produced different factors")
	}
}

func TestFitOfflineK2(t *testing.T) {
	d, g := smallDataset(t, 21)
	p := problemFor(d, g, 2)
	cfg := DefaultConfig()
	cfg.K = 2
	cfg.MaxIter = 40
	res, err := FitOffline(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Score only pos/neg items.
	truth := make([]int, len(d.TweetClass))
	for i, c := range d.TweetClass {
		if c == lexicon.Neu {
			truth[i] = -1
		} else {
			truth[i] = c
		}
	}
	if acc := eval.Accuracy(res.TweetClusters(), truth); acc < 0.7 {
		t.Fatalf("k=2 accuracy = %.3f", acc)
	}
}

func TestFitOfflineValidatesProblem(t *testing.T) {
	p := &Problem{
		Xp: sparse.Zeros(3, 4),
		Xu: sparse.Zeros(2, 5), // wrong feature count
		Xr: sparse.Zeros(2, 3),
	}
	if _, err := FitOffline(p, DefaultConfig()); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestFitOfflineEmptyGraphDoesNotCrash(t *testing.T) {
	p := &Problem{
		Xp: sparse.Zeros(4, 6),
		Xu: sparse.Zeros(3, 6),
		Xr: sparse.Zeros(3, 4),
	}
	cfg := DefaultConfig()
	cfg.MaxIter = 5
	cfg.LexiconInit = false
	cfg.Alpha = 0
	cfg.Beta = 0
	res, err := FitOffline(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Sp.IsFinite() || !res.Su.IsFinite() || !res.Sf.IsFinite() {
		t.Fatal("factors not finite on empty data")
	}
}

func TestFitOfflineNoRegularizers(t *testing.T) {
	d, g := smallDataset(t, 13)
	p := problemFor(d, g, 3)
	cfg := DefaultConfig()
	cfg.Alpha = 0
	cfg.Beta = 0
	cfg.MaxIter = 30
	res, err := FitOffline(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lb := res.FinalLoss()
	if lb.Lexicon != 0 || lb.GraphReg != 0 {
		t.Fatalf("regularizer losses should vanish: %+v", lb)
	}
}

func TestGraphRegularizationDisambiguatesUsers(t *testing.T) {
	// Four users, k=2. Users 2 and 3 are clearly positive/negative from
	// their words; users 0 and 1 post only ambiguous tweets, and their
	// *only* disambiguating signal is a retweet edge to user 2 / user 3
	// respectively. With β > 0 the Laplacian term must pull user 0 into
	// user 2's cluster and user 1 into user 3's.
	xp := sparse.FromDenseRows([][]float64{
		{4, 0},     // tweet 0 (user 2): positive words
		{0, 4},     // tweet 1 (user 3): negative words
		{0.5, 0.5}, // tweet 2 (user 0): ambiguous
		{0.5, 0.5}, // tweet 3 (user 1): ambiguous
	})
	xu := sparse.FromDenseRows([][]float64{
		{0.5, 0.5},
		{0.5, 0.5},
		{4, 0},
		{0, 4},
	})
	xr := sparse.FromDenseRows([][]float64{
		{0, 0, 1, 0},
		{0, 0, 0, 1},
		{1, 0, 0, 0},
		{0, 1, 0, 0},
	})
	gu := sparse.FromDenseRows([][]float64{
		{0, 0, 1, 0},
		{0, 0, 0, 1},
		{1, 0, 0, 0},
		{0, 1, 0, 0},
	})
	sf0 := mat.FromRows([][]float64{{0.9, 0.1}, {0.1, 0.9}})
	p := &Problem{Xp: xp, Xu: xu, Xr: xr, Gu: gu, Sf0: sf0}

	cfg := DefaultConfig()
	cfg.K = 2
	cfg.Alpha = 0.1
	cfg.Beta = 0.9
	cfg.MaxIter = 100
	cfg.Seed = 4
	res, err := FitOffline(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	uc := res.UserClusters()
	if uc[2] == uc[3] {
		t.Fatalf("anchor users not separated: %v", uc)
	}
	if uc[0] != uc[2] || uc[1] != uc[3] {
		t.Fatalf("graph regularization did not disambiguate: clusters %v", uc)
	}
}

func TestLossBreakdownSumsToTotal(t *testing.T) {
	d, g := smallDataset(t, 23)
	p := problemFor(d, g, 3)
	cfg := DefaultConfig()
	cfg.MaxIter = 5
	res, err := FitOffline(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lb := res.FinalLoss()
	sum := lb.TweetFeature + lb.UserFeature + lb.UserTweet + lb.Lexicon +
		lb.GraphReg + lb.Temporal
	if math.Abs(sum-lb.Total) > 1e-9*(1+lb.Total) {
		t.Fatalf("breakdown sum %.6f != total %.6f", sum, lb.Total)
	}
}

func TestRelChange(t *testing.T) {
	if relChange(100, 99) != 0.01 {
		t.Fatalf("relChange = %v", relChange(100, 99))
	}
	if !math.IsInf(relChange(math.Inf(1), 5), 1) {
		t.Fatal("relChange from Inf should be Inf")
	}
	if relChange(0.5, 0.4) > 0.11 {
		t.Fatal("small-denominator guard broken")
	}
}

func TestConfigWithDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.K != 3 || c.MaxIter != 100 || c.Tol != 1e-4 {
		t.Fatalf("withDefaults = %+v", c)
	}
}

func TestResultClusterAccessors(t *testing.T) {
	r := &Result{Factors: Factors{
		Sp: mat.FromRows([][]float64{{0.9, 0.1}, {0.2, 0.8}}),
		Su: mat.FromRows([][]float64{{0.1, 0.9}}),
		Sf: mat.FromRows([][]float64{{0.7, 0.3}}),
	}}
	if got := r.TweetClusters(); got[0] != 0 || got[1] != 1 {
		t.Fatalf("TweetClusters = %v", got)
	}
	if r.UserClusters()[0] != 1 {
		t.Fatal("cluster accessors wrong")
	}
	if r.FinalLoss().Total != 0 {
		t.Fatal("FinalLoss of empty history should be zero")
	}
}
