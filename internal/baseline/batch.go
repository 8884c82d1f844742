package baseline

import (
	"time"

	"triclust/internal/core"
	"triclust/internal/lexicon"
	"triclust/internal/mat"
	"triclust/internal/text"
	"triclust/internal/tgraph"
)

// BatchStep records one timestamp of a streaming driver.
type BatchStep struct {
	// Time is the snapshot timestamp.
	Time int
	// Snapshot is the window's graph ("full" drivers still report the
	// current window here for evaluation, even though they fit on the
	// cumulative corpus).
	Snapshot *tgraph.Snapshot
	// Result is the fitted model whose Sp rows align with
	// Snapshot.TweetIdx and Su rows with Snapshot.Active.
	Result *core.Result
	// Elapsed is the wall-clock fit time.
	Elapsed time.Duration
	// NewTweets is n(t), the number of tweets in the window.
	NewTweets int
}

// problemFromSnapshot assembles a core.Problem for a snapshot graph with
// a prior already built for the series' shared vocabulary.
func problemFromSnapshot(s *tgraph.Snapshot, sf0 *mat.Dense) *core.Problem {
	return &core.Problem{
		Xp:  s.Graph.Xp,
		Xu:  s.Graph.Xu,
		Xr:  s.Graph.Xr,
		Gu:  s.Graph.Gu,
		Sf0: sf0,
	}
}

// seriesPrior builds the lexicon prior once for a snapshot series: every
// snapshot shares one vocabulary (SnapshotSeries fixes it globally), so
// rebuilding the l×k Sf0 per timestamp — as the drivers used to — was
// pure per-step allocation.
func seriesPrior(snaps []*tgraph.Snapshot, lex *lexicon.Lexicon, k int) *mat.Dense {
	for _, s := range snaps {
		if s.Graph.Vocab != nil {
			return lex.Sf0(s.Graph.Vocab, k, 0.8)
		}
	}
	return nil
}

// MiniBatch applies the offline tri-clustering algorithm independently to
// each snapshot — the paper's high-scalability / low-quality extreme
// ("applying tri-clustering only to new data independently at each time
// interval"). Empty snapshots are skipped.
func MiniBatch(c *tgraph.Corpus, lex *lexicon.Lexicon, cfg core.Config, step int) ([]BatchStep, error) {
	snaps := tgraph.SnapshotSeries(c, step, 2, text.TFIDF)
	sf0 := seriesPrior(snaps, lex, cfg.K)
	var out []BatchStep
	lo, _, _ := c.TimeRange()
	for i, s := range snaps {
		if s.Graph.Xp.Rows() == 0 {
			continue
		}
		start := time.Now()
		res, err := core.FitOffline(problemFromSnapshot(s, sf0), cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, BatchStep{
			Time:      lo + i*step,
			Snapshot:  s,
			Result:    res,
			Elapsed:   time.Since(start),
			NewTweets: s.Graph.Xp.Rows(),
		})
	}
	return out, nil
}

// FullBatch re-runs the offline algorithm on the *entire* corpus observed
// so far at every timestamp — the paper's high-quality / high-cost extreme
// ("applying the offline tri-clustering framework to the entire dataset
// whenever new data is added"). The returned Result of each step is the
// cumulative model; Snapshot still describes the current window so callers
// evaluate on the same tweets across drivers, via CumulativeEval.
func FullBatch(c *tgraph.Corpus, lex *lexicon.Lexicon, cfg core.Config, step int) ([]BatchStep, error) {
	snaps := tgraph.SnapshotSeries(c, step, 2, text.TFIDF)
	sf0 := seriesPrior(snaps, lex, cfg.K)
	var out []BatchStep
	lo, _, _ := c.TimeRange()
	for i, s := range snaps {
		if s.Graph.Xp.Rows() == 0 {
			continue
		}
		t := lo + i*step
		cum := tgraph.BuildSnapshot(c, lo, t+step, s.Graph.Vocab, text.TFIDF)
		start := time.Now()
		res, err := core.FitOffline(problemFromSnapshot(cum, sf0), cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, BatchStep{
			Time:      t,
			Snapshot:  cum, // cumulative: rows cover all tweets so far
			Result:    res,
			Elapsed:   time.Since(start),
			NewTweets: s.Graph.Xp.Rows(),
		})
	}
	return out, nil
}

// OnlineDriver runs the paper's online algorithm over the same snapshot
// series, so the three drivers are directly comparable (Figures 11–12).
func OnlineDriver(c *tgraph.Corpus, lex *lexicon.Lexicon, cfg core.OnlineConfig, step int) ([]BatchStep, error) {
	snaps := tgraph.SnapshotSeries(c, step, 2, text.TFIDF)
	return OnlineDriverSeries(snaps, c, lex, cfg, step)
}

// OnlineDriverSeries is OnlineDriver over a prebuilt snapshot series, so
// harnesses that run several comparisons over one corpus (Tables 4 and 5,
// the figure sweeps) can build the series once instead of re-slicing and
// re-weighting the corpus per comparison.
func OnlineDriverSeries(snaps []*tgraph.Snapshot, c *tgraph.Corpus, lex *lexicon.Lexicon, cfg core.OnlineConfig, step int) ([]BatchStep, error) {
	o := core.NewOnline(cfg)
	sf0 := seriesPrior(snaps, lex, cfg.K)
	var out []BatchStep
	lo, _, _ := c.TimeRange()
	for i, s := range snaps {
		if s.Graph.Xp.Rows() == 0 {
			continue
		}
		t := lo + i*step
		start := time.Now()
		res, err := o.Step(t, problemFromSnapshot(s, sf0), s.Active)
		if err != nil {
			return nil, err
		}
		out = append(out, BatchStep{
			Time:      t,
			Snapshot:  s,
			Result:    res,
			Elapsed:   time.Since(start),
			NewTweets: s.Graph.Xp.Rows(),
		})
	}
	return out, nil
}
