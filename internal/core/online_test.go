package core

import (
	"testing"

	"triclust/internal/eval"
	"triclust/internal/lexicon"
	"triclust/internal/mat"
	"triclust/internal/sparse"
	"triclust/internal/synth"
	"triclust/internal/text"
	"triclust/internal/tgraph"
)

// onlineFixture generates a corpus and its per-day snapshots.
func onlineFixture(t testing.TB, seed int64) (*synth.Dataset, []*tgraph.Snapshot, *lexicon.Lexicon) {
	cfg := synth.DefaultConfig()
	cfg.Seed = seed
	cfg.NumUsers = 70
	cfg.Days = 8
	cfg.ElectionDay = 6
	cfg.TweetsPerUserDay = 1.2
	d, err := synth.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	snaps := tgraph.SnapshotSeries(d.Corpus, 1, 2, text.TFIDF)
	lex := d.PlantedLexicon(0.4, 0.05, 5)
	lex.Merge(lexicon.Builtin())
	return d, snaps, lex
}

func snapshotProblem(s *tgraph.Snapshot, lex *lexicon.Lexicon, k int) *Problem {
	return &Problem{
		Xp:  s.Graph.Xp,
		Xu:  s.Graph.Xu,
		Xr:  s.Graph.Xr,
		Gu:  s.Graph.Gu,
		Sf0: lex.Sf0(s.Graph.Vocab, k, 0.8),
	}
}

func TestOnlineStepsAccumulateHistory(t *testing.T) {
	_, snaps, lex := onlineFixture(t, 1)
	o := NewOnline(DefaultOnlineConfig())
	steps := 0
	for ti, s := range snaps {
		if s.Graph.Xp.Rows() == 0 {
			continue
		}
		res, err := o.Step(ti, snapshotProblem(s, lex, 3), s.Active)
		if err != nil {
			t.Fatalf("Step %d: %v", ti, err)
		}
		if res.Iterations == 0 {
			t.Fatalf("Step %d did no work", ti)
		}
		steps++
	}
	if steps < 4 {
		t.Fatalf("only %d non-empty snapshots", steps)
	}
	if limit := max(1, o.Config().Window-1); o.HistoryLen() == 0 || o.HistoryLen() > limit {
		t.Fatalf("HistoryLen = %d, want in [1, %d]", o.HistoryLen(), limit)
	}
	known := 0
	o.VisitUserEstimates(func(int, []float64) { known++ })
	if known == 0 {
		t.Fatal("no user history recorded")
	}
}

// TestOnlineStepObjectiveNonIncreasing is TestFitOfflineObjectiveNonIncreasing
// for Algorithm 2: every Online.Step of a stream, run for all its sweeps,
// drives the step's objective (Eq. 19) down within the offline test's 2 %
// bound a sweep. The largest rise it finds over seeds 1–6 is 0.054 % (logged
// under -v); the bound leaves room for the orthogonality Δ terms, as
// offline. TestOnlineUpdateProperties finds rises to 53 % on small
// generated problems, so it gives no tighter bound here.
func TestOnlineStepObjectiveNonIncreasing(t *testing.T) {
	worst := 0.0
	for seed := int64(1); seed <= 6; seed++ {
		_, snaps, lex := onlineFixture(t, seed)
		cfg := DefaultOnlineConfig()
		cfg.MaxIter = 30
		cfg.Tol = -1 // run all sweeps
		o := NewOnline(cfg)
		steps := 0
		for ti, s := range snaps {
			if s.Graph.Xp.Rows() == 0 {
				continue
			}
			res, err := o.Step(ti, snapshotProblem(s, lex, 3), s.Active)
			if err != nil {
				t.Fatalf("seed %d, step %d: %v", seed, ti, err)
			}
			h := res.History
			if len(h) != cfg.MaxIter {
				t.Fatalf("seed %d, step %d: %d sweeps, want %d", seed, ti, len(h), cfg.MaxIter)
			}
			for i := 1; i < len(h); i++ {
				prev, cur := h[i-1].Total, h[i].Total
				worst = max(worst, cur/prev-1)
				if cur > prev*1.02 {
					t.Fatalf("seed %d, step %d: objective rose at sweep %d: %.6g → %.6g", seed, ti, i, prev, cur)
				}
			}
			if first, last := h[0].Total, h[len(h)-1].Total; last >= first {
				t.Fatalf("seed %d, step %d: objective did not decrease: %.6g → %.6g", seed, ti, first, last)
			}
			steps++
		}
		if steps < 4 {
			t.Fatalf("seed %d: only %d non-empty snapshots", seed, steps)
		}
	}
	t.Logf("largest rise %.4f %%", 100*worst)
}

func TestOnlineRejectsNonIncreasingTime(t *testing.T) {
	_, snaps, lex := onlineFixture(t, 2)
	o := NewOnline(DefaultOnlineConfig())
	var first *tgraph.Snapshot
	for _, s := range snaps {
		if s.Graph.Xp.Rows() > 0 {
			first = s
			break
		}
	}
	if _, err := o.Step(5, snapshotProblem(first, lex, 3), first.Active); err != nil {
		t.Fatal(err)
	}
	if _, err := o.Step(5, snapshotProblem(first, lex, 3), first.Active); err == nil {
		t.Fatal("expected error for repeated timestamp")
	}
	if _, err := o.Step(3, snapshotProblem(first, lex, 3), first.Active); err == nil {
		t.Fatal("expected error for earlier timestamp")
	}
}

func TestOnlineRejectsActiveMismatch(t *testing.T) {
	_, snaps, lex := onlineFixture(t, 3)
	o := NewOnline(DefaultOnlineConfig())
	var s *tgraph.Snapshot
	for _, c := range snaps {
		if c.Graph.Xp.Rows() > 0 {
			s = c
			break
		}
	}
	if _, err := o.Step(0, snapshotProblem(s, lex, 3), s.Active[:1]); err == nil {
		t.Fatal("expected active-length error")
	}
}

func TestOnlineAccuracyReasonable(t *testing.T) {
	d, snaps, lex := onlineFixture(t, 4)
	o := NewOnline(DefaultOnlineConfig())
	var accSum float64
	var count int
	for ti, s := range snaps {
		if s.Graph.Xp.Rows() < 10 {
			continue
		}
		res, err := o.Step(ti, snapshotProblem(s, lex, 3), s.Active)
		if err != nil {
			t.Fatal(err)
		}
		truth := make([]int, len(s.TweetIdx))
		for i, g := range s.TweetIdx {
			truth[i] = d.TweetClass[g]
		}
		accSum += eval.Accuracy(res.TweetClusters(), truth)
		count++
	}
	if count == 0 {
		t.Skip("no usable snapshots")
	}
	if avg := accSum / float64(count); avg < 0.65 {
		t.Fatalf("average online tweet accuracy = %.3f", avg)
	}
}

func TestOnlineBeatsColdStartOnUsers(t *testing.T) {
	// The temporal history should make user-level accuracy on later
	// snapshots at least as good as independently clustering each
	// snapshot (the mini-batch extreme).
	d, snaps, lex := onlineFixture(t, 6)

	userAccuracy := func(res *Result, s *tgraph.Snapshot, day int) (float64, int) {
		truth := make([]int, len(s.Active))
		for i, g := range s.Active {
			truth[i] = d.StanceAt(g, day)
		}
		return eval.Accuracy(res.UserClusters(), truth), len(truth)
	}

	onlineCfg := DefaultOnlineConfig()
	onlineCfg.MaxIter = 40
	o := NewOnline(onlineCfg)
	var onlineSum, miniSum float64
	var weight float64
	for ti, s := range snaps {
		if s.Graph.Xp.Rows() < 10 {
			continue
		}
		p := snapshotProblem(s, lex, 3)
		resOnline, err := o.Step(ti, p, s.Active)
		if err != nil {
			t.Fatal(err)
		}
		miniCfg := DefaultConfig()
		miniCfg.MaxIter = 40
		resMini, err := FitOffline(p, miniCfg)
		if err != nil {
			t.Fatal(err)
		}
		if ti < 2 {
			continue // let history accumulate before comparing
		}
		ao, n := userAccuracy(resOnline, s, ti)
		am, _ := userAccuracy(resMini, s, ti)
		onlineSum += ao * float64(n)
		miniSum += am * float64(n)
		weight += float64(n)
	}
	if weight == 0 {
		t.Skip("no comparable snapshots")
	}
	online, mini := onlineSum/weight, miniSum/weight
	if online < mini-0.05 {
		t.Fatalf("online (%.3f) clearly worse than mini-batch (%.3f)", online, mini)
	}
}

func TestOnlineFactorsFinite(t *testing.T) {
	_, snaps, lex := onlineFixture(t, 8)
	o := NewOnline(DefaultOnlineConfig())
	for ti, s := range snaps {
		if s.Graph.Xp.Rows() == 0 {
			continue
		}
		res, err := o.Step(ti, snapshotProblem(s, lex, 3), s.Active)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Sp.IsFinite() || !res.Su.IsFinite() || !res.Sf.IsFinite() {
			t.Fatalf("non-finite factors at step %d", ti)
		}
		for _, v := range res.Su.Data() {
			if v < 0 {
				t.Fatal("negative Su entry")
			}
		}
	}
}

func TestOnlineLastUserEstimate(t *testing.T) {
	_, snaps, lex := onlineFixture(t, 9)
	o := NewOnline(DefaultOnlineConfig())
	var tracked int = -1
	for ti, s := range snaps {
		if s.Graph.Xp.Rows() == 0 {
			continue
		}
		if _, err := o.Step(ti, snapshotProblem(s, lex, 3), s.Active); err != nil {
			t.Fatal(err)
		}
		if tracked < 0 && len(s.Active) > 0 {
			tracked = s.Active[0]
		}
	}
	if tracked < 0 {
		t.Skip("no users")
	}
	var est []float64
	o.VisitUserEstimates(func(g int, row []float64) {
		if g == tracked {
			est = row
		}
		if g == 999999 {
			t.Error("a user who never appeared was visited")
		}
	})
	if len(est) != 3 {
		t.Fatalf("newest estimate of user %d = %v", tracked, est)
	}
}

func TestOnlineGammaZeroStillRuns(t *testing.T) {
	_, snaps, lex := onlineFixture(t, 10)
	cfg := DefaultOnlineConfig()
	cfg.Gamma = 0
	o := NewOnline(cfg)
	ran := false
	for ti, s := range snaps {
		if s.Graph.Xp.Rows() == 0 {
			continue
		}
		if _, err := o.Step(ti, snapshotProblem(s, lex, 3), s.Active); err != nil {
			t.Fatal(err)
		}
		ran = true
	}
	if !ran {
		t.Skip("no snapshots")
	}
}

func TestOnlineWindowPrunesHistory(t *testing.T) {
	_, snaps, lex := onlineFixture(t, 11)
	cfg := DefaultOnlineConfig()
	cfg.Window = 2
	o := NewOnline(cfg)
	for ti, s := range snaps {
		if s.Graph.Xp.Rows() == 0 {
			continue
		}
		if _, err := o.Step(ti, snapshotProblem(s, lex, 3), s.Active); err != nil {
			t.Fatal(err)
		}
		if o.HistoryLen() > max(1, cfg.Window-1) {
			t.Fatalf("history grew beyond what a later step can read: %d", o.HistoryLen())
		}
	}
}

func TestOnlineLossIncludesTemporalTerm(t *testing.T) {
	_, snaps, lex := onlineFixture(t, 12)
	o := NewOnline(DefaultOnlineConfig())
	sawTemporal := false
	for ti, s := range snaps {
		if s.Graph.Xp.Rows() == 0 {
			continue
		}
		res, err := o.Step(ti, snapshotProblem(s, lex, 3), s.Active)
		if err != nil {
			t.Fatal(err)
		}
		if ti > 0 && res.FinalLoss().Temporal > 0 {
			sawTemporal = true
		}
	}
	if !sawTemporal {
		t.Fatal("temporal loss never observed after the first snapshot")
	}
}

func TestDefaultOnlineConfigMatchesPaper(t *testing.T) {
	cfg := DefaultOnlineConfig()
	if cfg.Alpha != 0.9 || cfg.Tau != 0.9 || cfg.Gamma != 0.2 || cfg.Beta != 0.8 || cfg.Window != 2 {
		t.Fatalf("defaults %+v diverge from §5.2", cfg)
	}
}

func TestOnlinePriorFallsBackPerWord(t *testing.T) {
	// Build two snapshots over a 2-word vocabulary where word 1 never
	// occurs in the first snapshot: the second snapshot's temporal prior
	// must take word 0's row from history but word 1's row from the
	// lexicon prior (there are no intermediate results to reuse for it).
	sf0 := mat.FromRows([][]float64{{0.9, 0.1}, {0.1, 0.9}})
	mk := func(rows [][]float64) *Problem {
		xp := sparse.FromDenseRows(rows)
		return &Problem{
			Xp:  xp,
			Xu:  xp, // one user per tweet for simplicity
			Xr:  sparse.FromDenseRows([][]float64{{1, 0}, {0, 1}}),
			Sf0: sf0,
		}
	}
	cfg := DefaultOnlineConfig()
	cfg.K = 2
	cfg.MaxIter = 10
	o := NewOnline(cfg)

	// Snapshot 0: only word 0 used.
	if _, err := o.Step(0, mk([][]float64{{3, 0}, {2, 0}}), []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	// Snapshot 1: build the temporal prior and inspect it.
	p1 := mk([][]float64{{1, 1}, {1, 1}})
	tr := o.buildTemporal(1, p1, []int{0, 1})
	if tr.sfPrior == nil {
		t.Fatal("no prior built")
	}
	// Word 1 was unseen: its prior row must equal the lexicon row.
	if tr.sfPrior.At(1, 0) != sf0.At(1, 0) || tr.sfPrior.At(1, 1) != sf0.At(1, 1) {
		t.Fatalf("unseen word prior %v, want lexicon row %v",
			tr.sfPrior.Row(1), sf0.Row(1))
	}
	// Word 0 was seen: its prior row comes from the learned history and
	// will generally differ from the lexicon row.
	if tr.sfPrior.At(0, 0) == sf0.At(0, 0) && tr.sfPrior.At(0, 1) == sf0.At(0, 1) {
		t.Log("seen word row coincides with lexicon row (possible but unlikely)")
	}
}
