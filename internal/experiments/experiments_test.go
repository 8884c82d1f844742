package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"triclust/internal/core"
)

// testSetup caches one scaled setup per topic across tests.
var setupCache = map[Prop]*Setup{}

func getSetup(t testing.TB, p Prop) *Setup {
	t.Helper()
	if s, ok := setupCache[p]; ok {
		return s
	}
	s, err := NewSetup(p, 8)
	if err != nil {
		t.Fatalf("NewSetup: %v", err)
	}
	setupCache[p] = s
	return s
}

func TestTable2TopWordsShape(t *testing.T) {
	s := getSetup(t, Prop37)
	r := Table2TopWords(s, 8)
	if len(r.Pos) != 8 || len(r.Neg) != 8 {
		t.Fatalf("top lists %d/%d, want 8/8", len(r.Pos), len(r.Neg))
	}
	// Counts are sorted non-increasing.
	for i := 1; i < len(r.Pos); i++ {
		if r.Pos[i].Count > r.Pos[i-1].Count {
			t.Fatal("pos counts not sorted")
		}
	}
	// The planted seed hashtags dominate, as in the paper's Table 2.
	if r.Pos[0].Word == "" || r.Pos[0].Count == 0 {
		t.Fatal("empty top word")
	}
	var buf bytes.Buffer
	RenderTable2(&buf, r)
	if !strings.Contains(buf.String(), "Pos") {
		t.Fatal("render missing Pos row")
	}
}

func TestTable3StatsShape(t *testing.T) {
	s30 := getSetup(t, Prop30)
	s37 := getSetup(t, Prop37)
	r30, r37 := Table3Stats(s30), Table3Stats(s37)
	if r30.TweetPos == 0 || r30.TweetNeg == 0 {
		t.Fatalf("Prop30 tweet counts empty: %+v", r30)
	}
	// Prop 37 is heavily pos-skewed; Prop 30 is milder (Table 3).
	skew37 := float64(r37.TweetPos) / float64(r37.TweetPos+r37.TweetNeg)
	skew30 := float64(r30.TweetPos) / float64(r30.TweetPos+r30.TweetNeg)
	if skew37 <= skew30 {
		t.Fatalf("skew ordering lost: prop37 %.2f vs prop30 %.2f", skew37, skew30)
	}
	if r30.UserUnlabeled == 0 || r37.UserUnlabeled == 0 {
		t.Fatal("expected unlabeled users")
	}
	var buf bytes.Buffer
	RenderTable3(&buf, []Table3Row{r30, r37})
	if !strings.Contains(buf.String(), "unlabeled") {
		t.Fatal("render missing header")
	}
}

func TestFigure4FeatureEvolution(t *testing.T) {
	s := getSetup(t, Prop30)
	r := Figure4FeatureEvolution(s)
	if r.User < 0 {
		t.Fatal("no user selected")
	}
	if len(r.FreqA) == 0 || len(r.FreqB) == 0 {
		t.Skip("selected user inactive in one period")
	}
	// Observation 1: distributions differ between periods.
	if r.Divergence <= 0.05 {
		t.Fatalf("feature distributions suspiciously identical: TV=%.3f", r.Divergence)
	}
	var buf bytes.Buffer
	RenderFigure4(&buf, r)
	if !strings.Contains(buf.String(), "early") {
		t.Fatal("render missing period")
	}
}

func TestFigure6and7SweepShape(t *testing.T) {
	s := getSetup(t, Prop30)
	alphas := []float64{0, 0.5, 1}
	betas := []float64{0, 0.8}
	r, err := Figure6and7ParamSweep(s, alphas, betas, 25)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cells) != len(alphas)*len(betas) {
		t.Fatalf("grid size %d", len(r.Cells))
	}
	for _, c := range r.Cells {
		if c.User.Accuracy < 0.2 || c.Tweet.Accuracy < 0.2 {
			t.Fatalf("degenerate cell %+v", c)
		}
	}
	// Paper: tweet-level is much less parameter-sensitive than
	// user-level (§5.1: tweet acc varies ~1 point, user acc ~12 points).
	spread := func(f func(SweepCell) float64) float64 {
		lo, hi := 1.0, 0.0
		for _, c := range r.Cells {
			v := f(c)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		return hi - lo
	}
	tweetSpread := spread(func(c SweepCell) float64 { return c.Tweet.Accuracy })
	userSpread := spread(func(c SweepCell) float64 { return c.User.Accuracy })
	if tweetSpread > userSpread+0.05 {
		t.Fatalf("tweet sensitivity (%.3f) should not exceed user sensitivity (%.3f)",
			tweetSpread, userSpread)
	}
	var buf bytes.Buffer
	RenderSweep(&buf, r, alphas, betas)
	if !strings.Contains(buf.String(), "Figure 6a") {
		t.Fatal("render missing grids")
	}
}

func TestFigure8ConvergenceShape(t *testing.T) {
	s := getSetup(t, Prop30)
	r, err := Figure8Convergence(s, 30)
	if err != nil {
		t.Fatal(err)
	}
	if r.Iterations != 30 || len(r.Total) != 30 {
		t.Fatalf("iterations %d, history %d", r.Iterations, len(r.Total))
	}
	// Total objective settles: the last value is below the first and the
	// tail is nearly flat (paper: converges around iteration 10).
	if r.Total[len(r.Total)-1] >= r.Total[0] {
		t.Fatal("total loss did not decrease")
	}
	tailDelta := r.Total[20] - r.Total[29]
	headDelta := r.Total[0] - r.Total[9]
	if tailDelta < 0 {
		tailDelta = -tailDelta
	}
	if tailDelta > headDelta && headDelta > 0 {
		t.Fatalf("loss not settling: head Δ=%.3f tail Δ=%.3f", headDelta, tailDelta)
	}
	var buf bytes.Buffer
	RenderFigure8(&buf, r)
	if !strings.Contains(buf.String(), "total") {
		t.Fatal("render missing series")
	}
}

func TestTable4TweetLevelShape(t *testing.T) {
	s := getSetup(t, Prop30)
	r, err := Table4TweetLevel(s, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Scores) != 8 {
		t.Fatalf("%d methods, want 8", len(r.Scores))
	}
	tri, _ := r.Score("Tri-clustering")
	essa, _ := r.Score("ESSA")
	svm, _ := r.Score("SVM")
	lp5, _ := r.Score("LP-5")
	online, _ := r.Score("Online tri-clustering")

	// Paper shapes: tri-clustering beats ESSA on accuracy and NMI;
	// supervised SVM beats the unsupervised methods; tri-clustering
	// beats LP-5; online ≥ offline.
	if tri.Accuracy < essa.Accuracy-0.02 {
		t.Fatalf("tri (%.3f) worse than ESSA (%.3f)", tri.Accuracy, essa.Accuracy)
	}
	if tri.NMI < essa.NMI-0.02 {
		t.Fatalf("tri NMI (%.3f) worse than ESSA (%.3f)", tri.NMI, essa.NMI)
	}
	if svm.Accuracy < tri.Accuracy-0.05 {
		t.Fatalf("SVM (%.3f) should be competitive with tri (%.3f)", svm.Accuracy, tri.Accuracy)
	}
	if tri.Accuracy < lp5.Accuracy-0.02 {
		t.Fatalf("tri (%.3f) worse than LP-5 (%.3f)", tri.Accuracy, lp5.Accuracy)
	}
	// At this test scale each daily snapshot is tiny, so the online
	// algorithm loses some of its paper-scale advantage; require it to
	// stay within 10 points of offline (at larger scales it matches or
	// beats it — see EXPERIMENTS.md).
	if online.Accuracy < tri.Accuracy-0.10 {
		t.Fatalf("online (%.3f) clearly worse than offline (%.3f)", online.Accuracy, tri.Accuracy)
	}
	// The reproduced numbers themselves, at this scale: the shapes above
	// survive a solver that drifted, these do not. (The seed-1 pins of
	// bench/gates.go are the tight ones, outside tier-1.)
	pinScores(t, "Table 4", map[string][2]float64{
		"Tri-clustering accuracy":        {tri.Accuracy, 0.8369},
		"Tri-clustering NMI":             {tri.NMI, 0.5970},
		"Online tri-clustering accuracy": {online.Accuracy, 0.8108},
		"Online tri-clustering NMI":      {online.NMI, 0.4568},
	})
	var buf bytes.Buffer
	RenderComparison(&buf, "Table 4", []*ComparisonResult{r})
	if !strings.Contains(buf.String(), "Tri-clustering") {
		t.Fatal("render missing method")
	}
}

func TestTable5UserLevelShape(t *testing.T) {
	s := getSetup(t, Prop30)
	r, err := Table5UserLevel(s, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Scores) != 8 {
		t.Fatalf("%d methods, want 8", len(r.Scores))
	}
	tri, _ := r.Score("Tri-clustering")
	bacg, _ := r.Score("BACG")
	online, _ := r.Score("Online tri-clustering")
	// Paper: tri-clustering significantly beats BACG; online ≥ offline.
	if tri.Accuracy < bacg.Accuracy-0.02 {
		t.Fatalf("tri (%.3f) worse than BACG (%.3f)", tri.Accuracy, bacg.Accuracy)
	}
	if online.Accuracy < tri.Accuracy-0.10 {
		t.Fatalf("online (%.3f) collapsed vs offline (%.3f)", online.Accuracy, tri.Accuracy)
	}
	pinScores(t, "Table 5", map[string][2]float64{
		"Tri-clustering accuracy":        {tri.Accuracy, 0.8750},
		"Tri-clustering NMI":             {tri.NMI, 0.5966},
		"Online tri-clustering accuracy": {online.Accuracy, 0.8250},
		"Online tri-clustering NMI":      {online.NMI, 0.5616},
	})
}

// pinScores holds each {got, want} pair to ±0.005.
func pinScores(t *testing.T, table string, scores map[string][2]float64) {
	t.Helper()
	for name, s := range scores {
		if math.Abs(s[0]-s[1]) > 0.005 {
			t.Errorf("%s, %s: %.4f, pinned at %.4f ± 0.005", table, name, s[0], s[1])
		}
	}
}

func TestFigure9and10OnlineSweeps(t *testing.T) {
	s := getSetup(t, Prop30)
	cells, err := Figure9OnlineAlphaTau(s, []float64{0, 0.9}, []float64{0.5, 0.9}, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("grid %d", len(cells))
	}
	for _, c := range cells {
		if c.Tweet <= 0.3 || c.User <= 0.3 {
			t.Fatalf("degenerate online cell %+v", c)
		}
	}
	g, err := Figure10Gamma(s, []float64{0, 0.2, 1}, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(g) != 3 {
		t.Fatalf("gamma sweep %d", len(g))
	}
	// Paper: γ affects user level, leaves tweet level nearly unchanged.
	tweetSpread := g[0].Tweet - g[2].Tweet
	if tweetSpread < 0 {
		tweetSpread = -tweetSpread
	}
	if tweetSpread > 0.15 {
		t.Fatalf("γ moved tweet accuracy by %.3f", tweetSpread)
	}
	var buf bytes.Buffer
	RenderOnlineSweep(&buf, "Figure 9", cells, false)
	RenderOnlineSweep(&buf, "Figure 10", g, true)
	if !strings.Contains(buf.String(), "γ") {
		t.Fatal("render missing gamma column")
	}
}

func TestFigure11TimelineShape(t *testing.T) {
	s := getSetup(t, Prop30)
	cfg := core.DefaultOnlineConfig()
	cfg.Window = 4 // harness window: thin synthetic days (see tables.go)
	cfg.MaxIter = 20
	r, err := Figure11and12Online(s, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Online) == 0 || len(r.Mini) == 0 || len(r.Full) == 0 {
		t.Fatal("empty driver series")
	}
	sum := r.Summarize()
	// Paper shapes: online much cheaper than full-batch; online accuracy
	// ≈ full-batch and ≥ mini-batch on users.
	if sum.OnlineTime > sum.FullTime {
		t.Fatalf("online (%v) slower than full-batch (%v)", sum.OnlineTime, sum.FullTime)
	}
	if sum.OnlineUserAcc < sum.MiniUserAcc-0.05 {
		t.Fatalf("online user acc (%.3f) clearly below mini-batch (%.3f)",
			sum.OnlineUserAcc, sum.MiniUserAcc)
	}
	var buf bytes.Buffer
	RenderTimeline(&buf, r)
	if !strings.Contains(buf.String(), "totals:") {
		t.Fatal("render missing totals")
	}
}

func TestSetupUnknownProp(t *testing.T) {
	if _, err := NewSetup(Prop(99), 1); err == nil {
		t.Fatal("expected error")
	}
}

func TestTableRenderer(t *testing.T) {
	var buf bytes.Buffer
	Table(&buf, [][]string{{"a", "bb"}, {"ccc", "d"}})
	out := buf.String()
	if !strings.Contains(out, "a    bb") && !strings.Contains(out, "a   bb") {
		t.Fatalf("alignment wrong:\n%s", out)
	}
	Table(&buf, nil) // must not panic
}

func TestAblationShape(t *testing.T) {
	s := getSetup(t, Prop30)
	rows, err := Ablation(s, 25)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d variants, want 6", len(rows))
	}
	byName := map[string]AblationRow{}
	for _, r := range rows {
		byName[r.Variant] = r
	}
	full := byName["full"]
	if full.Tweet.Accuracy < 0.5 || full.User.Accuracy < 0.5 {
		t.Fatalf("full model degenerate: %+v", full)
	}
	// The ESSA reduction has no user output.
	if byName["tweets-only (ESSA reduction)"].User.Accuracy != 0 {
		t.Fatal("tweets-only variant should have no user metrics")
	}
	// Dropping the Xr coupling should not *help* user-level accuracy
	// (it is the only tie between users and tweet clusters).
	if byName["no-Xr coupling"].User.Accuracy > full.User.Accuracy+0.10 {
		t.Fatalf("removing Xr helped users substantially: %.3f vs %.3f",
			byName["no-Xr coupling"].User.Accuracy, full.User.Accuracy)
	}
	var buf bytes.Buffer
	RenderAblation(&buf, Prop30, rows)
	if !strings.Contains(buf.String(), "full") {
		t.Fatal("render missing variant")
	}
}

func TestMultiSeedRobustness(t *testing.T) {
	r, err := MultiSeed(Prop30, 10, []int64{1, 2, 3}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.TweetAcc) == 0 || len(r.UserAcc) == 0 {
		t.Fatal("empty stats")
	}
	find := func(list []SeedStats, m string) SeedStats {
		for _, s := range list {
			if s.Method == m {
				return s
			}
		}
		t.Fatalf("method %s missing", m)
		return SeedStats{}
	}
	tri := find(r.TweetAcc, "Tri-clustering")
	if len(tri.PerSeed) != 3 {
		t.Fatalf("per-seed count %d", len(tri.PerSeed))
	}
	if tri.Mean < 0.5 || tri.Mean > 1 {
		t.Fatalf("tri mean %.3f", tri.Mean)
	}
	if tri.Std < 0 || tri.Std > 0.3 {
		t.Fatalf("tri std %.3f unreasonable", tri.Std)
	}
	km := find(r.TweetAcc, "KMeans")
	// Tri-clustering should not lose badly to plain k-means on average.
	if tri.Mean < km.Mean-0.05 {
		t.Fatalf("tri (%.3f) well below kmeans (%.3f)", tri.Mean, km.Mean)
	}
	var buf bytes.Buffer
	RenderMultiSeed(&buf, r)
	if !strings.Contains(buf.String(), "Tri-clustering") {
		t.Fatal("render missing method")
	}
}
