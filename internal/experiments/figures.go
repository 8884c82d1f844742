package experiments

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"triclust/internal/baseline"
	"triclust/internal/core"
	"triclust/internal/eval"
)

// ——— Figure 4: evolution of features ———

// Figure4Result holds one user's feature-frequency histograms over two
// periods.
type Figure4Result struct {
	User             int
	PeriodA, PeriodB [2]int // [from, to)
	FreqA, FreqB     map[string]int
	// Divergence is the total-variation distance between the two
	// normalized histograms (1 = disjoint, 0 = identical).
	Divergence float64
}

// Figure4FeatureEvolution compares the token frequency distribution of the
// most active user between an early and a late window, demonstrating
// Observation 1 (frequency changes; polarity persists).
func Figure4FeatureEvolution(s *Setup) *Figure4Result {
	c := s.Dataset.Corpus
	lo, hi, ok := c.TimeRange()
	if !ok {
		return &Figure4Result{FreqA: map[string]int{}, FreqB: map[string]int{}}
	}
	span := (hi - lo + 1) / 4
	if span < 1 {
		span = 1
	}
	pa := [2]int{lo, lo + span}
	pb := [2]int{hi + 1 - span, hi + 1}

	// Most active user across both periods.
	activity := map[int]int{}
	for _, tw := range c.Tweets {
		if (tw.Time >= pa[0] && tw.Time < pa[1]) || (tw.Time >= pb[0] && tw.Time < pb[1]) {
			activity[tw.User]++
		}
	}
	best, bestN := -1, 0
	for u, n := range activity {
		if n > bestN || (n == bestN && (best == -1 || u < best)) {
			best, bestN = u, n
		}
	}
	r := &Figure4Result{User: best, PeriodA: pa, PeriodB: pb,
		FreqA: map[string]int{}, FreqB: map[string]int{}}
	for _, tw := range c.Tweets {
		if tw.User != best {
			continue
		}
		switch {
		case tw.Time >= pa[0] && tw.Time < pa[1]:
			for _, tok := range tw.Tokens {
				r.FreqA[tok]++
			}
		case tw.Time >= pb[0] && tw.Time < pb[1]:
			for _, tok := range tw.Tokens {
				r.FreqB[tok]++
			}
		}
	}
	r.Divergence = totalVariation(r.FreqA, r.FreqB)
	return r
}

func totalVariation(a, b map[string]int) float64 {
	var na, nb float64
	for _, v := range a {
		na += float64(v)
	}
	for _, v := range b {
		nb += float64(v)
	}
	if na == 0 || nb == 0 {
		return 1
	}
	keys := map[string]struct{}{}
	for k := range a {
		keys[k] = struct{}{}
	}
	for k := range b {
		keys[k] = struct{}{}
	}
	var tv float64
	for k := range keys {
		tv += math.Abs(float64(a[k])/na - float64(b[k])/nb)
	}
	return tv / 2
}

// RenderFigure4 prints the top tokens per period and the divergence.
func RenderFigure4(w io.Writer, r *Figure4Result) {
	fmt.Fprintf(w, "Figure 4: feature evolution for user %d (TV distance %.3f)\n", r.User, r.Divergence)
	show := func(name string, period [2]int, freq map[string]int) {
		type kv struct {
			k string
			v int
		}
		var items []kv
		for k, v := range freq {
			items = append(items, kv{k, v})
		}
		sort.Slice(items, func(i, j int) bool {
			if items[i].v != items[j].v {
				return items[i].v > items[j].v
			}
			return items[i].k < items[j].k
		})
		if len(items) > 10 {
			items = items[:10]
		}
		fmt.Fprintf(w, "  days [%d,%d) %s:", period[0], period[1], name)
		for _, it := range items {
			fmt.Fprintf(w, " %s(%d)", it.k, it.v)
		}
		fmt.Fprintln(w)
	}
	show("early", r.PeriodA, r.FreqA)
	show("late", r.PeriodB, r.FreqB)
}

// ——— Figures 6 & 7: offline parameter sweep ———

// SweepCell is one (α, β) grid point's metrics.
type SweepCell struct {
	Alpha, Beta float64
	User, Tweet eval.Metrics
}

// SweepResult is the full grid.
type SweepResult struct {
	Prop  Prop
	Cells []SweepCell
}

// Figure6and7ParamSweep sweeps α and β over the given grids and records
// user-level (Figure 6) and tweet-level (Figure 7) accuracy and NMI.
func Figure6and7ParamSweep(s *Setup, alphas, betas []float64, maxIter int) (*SweepResult, error) {
	out := &SweepResult{Prop: s.Prop}
	tweetTruth := s.Dataset.Corpus.TweetLabels()
	userTruth := s.Dataset.Corpus.UserLabels()
	for _, a := range alphas {
		for _, b := range betas {
			cfg := core.DefaultConfig()
			cfg.Alpha, cfg.Beta = a, b
			cfg.MaxIter = maxIter
			res, err := core.FitOffline(s.Problem(cfg.K), cfg)
			if err != nil {
				return nil, err
			}
			out.Cells = append(out.Cells, SweepCell{
				Alpha: a, Beta: b,
				User:  eval.Evaluate(res.UserClusters(), userTruth),
				Tweet: eval.Evaluate(res.TweetClusters(), tweetTruth),
			})
		}
	}
	return out, nil
}

// Best returns the grid point maximizing the chosen metric
// (metric(cell) must return the value to maximize).
func (r *SweepResult) Best(metric func(SweepCell) float64) SweepCell {
	best := r.Cells[0]
	for _, c := range r.Cells[1:] {
		if metric(c) > metric(best) {
			best = c
		}
	}
	return best
}

// RenderSweep prints the grid as four matrices (user/tweet × acc/NMI).
func RenderSweep(w io.Writer, r *SweepResult, alphas, betas []float64) {
	get := func(a, b float64) SweepCell {
		for _, c := range r.Cells {
			if c.Alpha == a && c.Beta == b {
				return c
			}
		}
		return SweepCell{}
	}
	grid := func(title string, f func(SweepCell) float64) {
		fmt.Fprintf(w, "%s (%s): rows α, cols β\n", title, r.Prop)
		header := []string{"α\\β"}
		for _, b := range betas {
			header = append(header, fmt.Sprintf("%.1f", b))
		}
		rows := [][]string{header}
		for _, a := range alphas {
			row := []string{fmt.Sprintf("%.1f", a)}
			for _, b := range betas {
				row = append(row, fmt.Sprintf("%.1f", f(get(a, b))*100))
			}
			rows = append(rows, row)
		}
		Table(w, rows)
	}
	grid("Figure 6a: user-level accuracy", func(c SweepCell) float64 { return c.User.Accuracy })
	grid("Figure 6b: user-level NMI", func(c SweepCell) float64 { return c.User.NMI })
	grid("Figure 7a: tweet-level accuracy", func(c SweepCell) float64 { return c.Tweet.Accuracy })
	grid("Figure 7b: tweet-level NMI", func(c SweepCell) float64 { return c.Tweet.NMI })
}

// ——— Figure 8: convergence ———

// ConvergenceResult carries the per-iteration Frobenius losses.
type ConvergenceResult struct {
	Prop Prop
	// TweetFeature, UserFeature and Total are √ of the recorded squared
	// losses per iteration, matching Figure 8's y axes (‖·‖_F).
	TweetFeature, UserFeature, Total []float64
	Iterations                       int
}

// Figure8Convergence runs the offline solver with tolerance disabled and
// records the loss trajectories of Eq. 2, Eq. 3 and Eq. 1.
func Figure8Convergence(s *Setup, iters int) (*ConvergenceResult, error) {
	cfg := core.DefaultConfig()
	cfg.MaxIter = iters
	cfg.Tol = -1 // disable the convergence check: record every iteration
	res, err := core.FitOffline(s.Problem(cfg.K), cfg)
	if err != nil {
		return nil, err
	}
	out := &ConvergenceResult{Prop: s.Prop, Iterations: res.Iterations}
	for _, lb := range res.History {
		out.TweetFeature = append(out.TweetFeature, math.Sqrt(lb.TweetFeature))
		out.UserFeature = append(out.UserFeature, math.Sqrt(lb.UserFeature))
		out.Total = append(out.Total, math.Sqrt(lb.Total))
	}
	return out, nil
}

// RenderFigure8 prints the three loss series.
func RenderFigure8(w io.Writer, r *ConvergenceResult) {
	fmt.Fprintf(w, "Figure 8: convergence on %s\n", r.Prop)
	x := make([]float64, len(r.Total))
	for i := range x {
		x[i] = float64(i + 1)
	}
	Series(w, "iter", x, map[string][]float64{
		"||Xp-SpHpSf'||F": r.TweetFeature,
		"||Xu-SuHuSf'||F": r.UserFeature,
		"total":           r.Total,
	}, []string{"||Xp-SpHpSf'||F", "||Xu-SuHuSf'||F", "total"})
}

// ——— Figure 9: online accuracy vs (α, τ) ———

// OnlineSweepCell is one (α, τ) or γ grid point.
type OnlineSweepCell struct {
	Alpha, Tau, Gamma float64
	User, Tweet       float64 // accuracies
}

// Figure9OnlineAlphaTau sweeps α and τ with β=0.8, γ=0.2, w=2 and records
// tweet- and user-level accuracy of the online algorithm.
func Figure9OnlineAlphaTau(s *Setup, alphas, taus []float64, maxIter int) ([]OnlineSweepCell, error) {
	var out []OnlineSweepCell
	for _, a := range alphas {
		for _, tau := range taus {
			cfg := core.DefaultOnlineConfig()
			cfg.Alpha, cfg.Tau = a, tau
			cfg.Window = 4 // multiple snapshots must contribute for τ to matter
			cfg.MaxIter = maxIter
			tweetAcc, userAcc, err := onlineAccuracy(s, cfg)
			if err != nil {
				return nil, err
			}
			out = append(out, OnlineSweepCell{Alpha: a, Tau: tau, Gamma: cfg.Gamma,
				User: userAcc, Tweet: tweetAcc})
		}
	}
	return out, nil
}

// Figure10Gamma sweeps γ with α=τ=0.9 fixed.
func Figure10Gamma(s *Setup, gammas []float64, maxIter int) ([]OnlineSweepCell, error) {
	var out []OnlineSweepCell
	for _, g := range gammas {
		cfg := core.DefaultOnlineConfig()
		cfg.Gamma = g
		cfg.Window = 4
		cfg.MaxIter = maxIter
		tweetAcc, userAcc, err := onlineAccuracy(s, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, OnlineSweepCell{Alpha: cfg.Alpha, Tau: cfg.Tau, Gamma: g,
			User: userAcc, Tweet: tweetAcc})
	}
	return out, nil
}

// onlineAccuracy runs the online driver and returns overall tweet- and
// user-level accuracy (user truth taken at each snapshot's timestamp, so
// evolving users are scored against their stance *at that time*).
func onlineAccuracy(s *Setup, cfg core.OnlineConfig) (tweetAcc, userAcc float64, err error) {
	steps, err := baseline.OnlineDriver(s.Dataset.Corpus, s.Lexicon, cfg, 1)
	if err != nil {
		return 0, 0, err
	}
	var tSum, tW, uSum, uW float64
	for _, st := range steps {
		truthT := make([]int, len(st.Snapshot.TweetIdx))
		for i, g := range st.Snapshot.TweetIdx {
			truthT[i] = s.Dataset.TweetClass[g]
		}
		a := eval.Accuracy(st.Result.TweetClusters(), truthT)
		tSum += a * float64(len(truthT))
		tW += float64(len(truthT))

		truthU := make([]int, len(st.Snapshot.Active))
		for i, g := range st.Snapshot.Active {
			truthU[i] = s.Dataset.StanceAt(g, st.Time)
		}
		au := eval.Accuracy(st.Result.UserClusters(), truthU)
		uSum += au * float64(len(truthU))
		uW += float64(len(truthU))
	}
	if tW == 0 || uW == 0 {
		return 0, 0, fmt.Errorf("experiments: no snapshots to evaluate")
	}
	return tSum / tW, uSum / uW, nil
}

// RenderOnlineSweep prints (α, τ) or γ sweeps.
func RenderOnlineSweep(w io.Writer, title string, cells []OnlineSweepCell, byGamma bool) {
	fmt.Fprintln(w, title)
	var rows [][]string
	if byGamma {
		rows = append(rows, []string{"γ", "user acc", "tweet acc"})
		for _, c := range cells {
			rows = append(rows, []string{fmt.Sprintf("%.1f", c.Gamma), eval.Percent(c.User), eval.Percent(c.Tweet)})
		}
	} else {
		rows = append(rows, []string{"α", "τ", "user acc", "tweet acc"})
		for _, c := range cells {
			rows = append(rows, []string{fmt.Sprintf("%.1f", c.Alpha), fmt.Sprintf("%.1f", c.Tau),
				eval.Percent(c.User), eval.Percent(c.Tweet)})
		}
	}
	Table(w, rows)
}

// ——— Figures 11 & 12: online vs mini-batch vs full-batch timelines ———

// TimelinePoint is one timestamp of one driver.
type TimelinePoint struct {
	Time      int
	NewTweets int
	Elapsed   time.Duration
	TweetAcc  float64
	UserAcc   float64
}

// TimelineResult carries the three drivers' series.
type TimelineResult struct {
	Prop                   Prop
	Online, Mini, Full     []TimelinePoint
	OnlineTotal, MiniTotal time.Duration
	FullTotal              time.Duration
}

// Figure11and12Online runs the online algorithm against the mini-batch and
// full-batch extremes over the daily stream and records running time and
// both accuracy levels per timestamp (Figures 11 and 12).
func Figure11and12Online(s *Setup, cfg core.OnlineConfig, step int) (*TimelineResult, error) {
	offCfg := cfg.Config

	onSteps, err := baseline.OnlineDriver(s.Dataset.Corpus, s.Lexicon, cfg, step)
	if err != nil {
		return nil, err
	}
	miniSteps, err := baseline.MiniBatch(s.Dataset.Corpus, s.Lexicon, offCfg, step)
	if err != nil {
		return nil, err
	}
	fullSteps, err := baseline.FullBatch(s.Dataset.Corpus, s.Lexicon, offCfg, step)
	if err != nil {
		return nil, err
	}

	out := &TimelineResult{Prop: s.Prop}
	score := func(st baseline.BatchStep, currentOnly bool) TimelinePoint {
		pt := TimelinePoint{Time: st.Time, NewTweets: st.NewTweets, Elapsed: st.Elapsed}
		truthT := make([]int, len(st.Snapshot.TweetIdx))
		for i, g := range st.Snapshot.TweetIdx {
			if currentOnly && s.Dataset.Corpus.Tweets[g].Time != st.Time {
				// Full-batch snapshots are cumulative: score only the
				// current window so all drivers grade the same tweets.
				truthT[i] = -1
				continue
			}
			truthT[i] = s.Dataset.TweetClass[g]
		}
		pt.TweetAcc = eval.Accuracy(st.Result.TweetClusters(), truthT)
		truthU := make([]int, len(st.Snapshot.Active))
		for i, g := range st.Snapshot.Active {
			truthU[i] = s.Dataset.StanceAt(g, st.Time)
		}
		pt.UserAcc = eval.Accuracy(st.Result.UserClusters(), truthU)
		return pt
	}
	for _, st := range onSteps {
		pt := score(st, false)
		out.Online = append(out.Online, pt)
		out.OnlineTotal += pt.Elapsed
	}
	for _, st := range miniSteps {
		pt := score(st, false)
		out.Mini = append(out.Mini, pt)
		out.MiniTotal += pt.Elapsed
	}
	for _, st := range fullSteps {
		pt := score(st, true)
		out.Full = append(out.Full, pt)
		out.FullTotal += pt.Elapsed
	}
	return out, nil
}

// Mean accuracy helpers over a driver's series.
func meanTweetAcc(pts []TimelinePoint) float64 {
	var s, w float64
	for _, p := range pts {
		s += p.TweetAcc * float64(p.NewTweets)
		w += float64(p.NewTweets)
	}
	if w == 0 {
		return 0
	}
	return s / w
}

func meanUserAcc(pts []TimelinePoint) float64 {
	var s float64
	for _, p := range pts {
		s += p.UserAcc
	}
	if len(pts) == 0 {
		return 0
	}
	return s / float64(len(pts))
}

// Summary aggregates a timeline into the headline comparisons.
type Summary struct {
	OnlineTweetAcc, MiniTweetAcc, FullTweetAcc float64
	OnlineUserAcc, MiniUserAcc, FullUserAcc    float64
	OnlineTime, MiniTime, FullTime             time.Duration
}

// Summarize reduces a TimelineResult.
func (r *TimelineResult) Summarize() Summary {
	return Summary{
		OnlineTweetAcc: meanTweetAcc(r.Online),
		MiniTweetAcc:   meanTweetAcc(r.Mini),
		FullTweetAcc:   meanTweetAcc(r.Full),
		OnlineUserAcc:  meanUserAcc(r.Online),
		MiniUserAcc:    meanUserAcc(r.Mini),
		FullUserAcc:    meanUserAcc(r.Full),
		OnlineTime:     r.OnlineTotal,
		MiniTime:       r.MiniTotal,
		FullTime:       r.FullTotal,
	}
}

// RenderTimeline prints the per-timestamp series and totals.
func RenderTimeline(w io.Writer, r *TimelineResult) {
	fmt.Fprintf(w, "Figure %d: online vs mini-batch vs full-batch on %s\n",
		map[Prop]int{Prop30: 11, Prop37: 12}[r.Prop], r.Prop)
	rows := [][]string{{"t", "n(t)", "online ms", "mini ms", "full ms",
		"onl tw%", "mini tw%", "full tw%", "onl us%", "mini us%", "full us%"}}
	for i := range r.Online {
		var mini, full TimelinePoint
		if i < len(r.Mini) {
			mini = r.Mini[i]
		}
		if i < len(r.Full) {
			full = r.Full[i]
		}
		on := r.Online[i]
		rows = append(rows, []string{
			fmt.Sprintf("%d", on.Time), fmt.Sprintf("%d", on.NewTweets),
			fmt.Sprintf("%.1f", float64(on.Elapsed.Microseconds())/1000),
			fmt.Sprintf("%.1f", float64(mini.Elapsed.Microseconds())/1000),
			fmt.Sprintf("%.1f", float64(full.Elapsed.Microseconds())/1000),
			eval.Percent(on.TweetAcc), eval.Percent(mini.TweetAcc), eval.Percent(full.TweetAcc),
			eval.Percent(on.UserAcc), eval.Percent(mini.UserAcc), eval.Percent(full.UserAcc),
		})
	}
	Table(w, rows)
	sum := r.Summarize()
	fmt.Fprintf(w, "totals: online %v, mini-batch %v, full-batch %v\n",
		sum.OnlineTime.Round(time.Millisecond), sum.MiniTime.Round(time.Millisecond), sum.FullTime.Round(time.Millisecond))
	fmt.Fprintf(w, "mean tweet acc: online %s, mini %s, full %s\n",
		eval.Percent(sum.OnlineTweetAcc), eval.Percent(sum.MiniTweetAcc), eval.Percent(sum.FullTweetAcc))
	fmt.Fprintf(w, "mean user acc: online %s, mini %s, full %s\n",
		eval.Percent(sum.OnlineUserAcc), eval.Percent(sum.MiniUserAcc), eval.Percent(sum.FullUserAcc))
}
