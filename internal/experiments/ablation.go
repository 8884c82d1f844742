package experiments

import (
	"fmt"
	"io"

	"triclust/internal/core"
	"triclust/internal/eval"
	"triclust/internal/sparse"
)

// AblationRow is one variant's metrics.
type AblationRow struct {
	Variant     string
	Tweet, User eval.Metrics
}

// Ablation measures how much each component of the objective (Eq. 1)
// contributes by knocking them out one at a time:
//
//   - full: the complete tri-clustering objective;
//   - no-lexicon (α=0): drops the emotion-consistency prior;
//   - no-graph (β=0): drops the user-graph Laplacian;
//   - no-Xr: drops the user–tweet coupling term;
//   - no-Xu: drops the user–feature term (users are then positioned only
//     by Xr);
//   - tweets-only: Xp alone — the ESSA reduction.
//
// This is the design-choice evidence DESIGN.md calls out: the paper argues
// each coupling matters (§3, §5.1); the ablation quantifies it on the
// synthetic corpus.
func Ablation(s *Setup, maxIter int) ([]AblationRow, error) {
	tweetTruth := s.Dataset.Corpus.TweetLabels()
	userTruth := s.Dataset.Corpus.UserLabels()
	base := s.Problem(3)

	run := func(name string, p *core.Problem, mutate func(*core.Config)) (AblationRow, error) {
		cfg := core.DefaultConfig()
		cfg.MaxIter = maxIter
		if mutate != nil {
			mutate(&cfg)
		}
		res, err := core.FitOffline(p, cfg)
		if err != nil {
			return AblationRow{}, err
		}
		row := AblationRow{Variant: name}
		if p.Xp.Rows() == s.Dataset.Corpus.NumTweets() {
			row.Tweet = eval.Evaluate(res.TweetClusters(), tweetTruth)
		}
		if p.Xu.Rows() == s.Dataset.Corpus.NumUsers() {
			row.User = eval.Evaluate(res.UserClusters(), userTruth)
		}
		return row, nil
	}

	var out []AblationRow
	add := func(r AblationRow, err error) error {
		if err != nil {
			return err
		}
		out = append(out, r)
		return nil
	}

	if err := add(run("full", base, nil)); err != nil {
		return nil, err
	}
	if err := add(run("no-lexicon (α=0)", base, func(c *core.Config) { c.Alpha = 0 })); err != nil {
		return nil, err
	}
	if err := add(run("no-graph (β=0)", base, func(c *core.Config) { c.Beta = 0 })); err != nil {
		return nil, err
	}
	// Problems carry lazily derived caches (transposes), so knockouts build
	// fresh Problem values instead of copying base.
	noXr := &core.Problem{Xp: base.Xp, Xu: base.Xu, Gu: base.Gu, Sf0: base.Sf0,
		Xr: sparse.Zeros(base.Xr.Rows(), base.Xr.Cols())}
	if err := add(run("no-Xr coupling", noXr, nil)); err != nil {
		return nil, err
	}
	noXu := &core.Problem{Xp: base.Xp, Xr: base.Xr, Gu: base.Gu, Sf0: base.Sf0,
		Xu: sparse.Zeros(base.Xu.Rows(), base.Xu.Cols())}
	if err := add(run("no-Xu term", noXu, nil)); err != nil {
		return nil, err
	}
	essaLike := &core.Problem{
		Xp:  base.Xp,
		Xu:  sparse.Zeros(0, base.Xp.Cols()),
		Xr:  sparse.Zeros(0, base.Xp.Rows()),
		Sf0: base.Sf0,
	}
	if err := add(run("tweets-only (ESSA reduction)", essaLike, func(c *core.Config) { c.Beta = 0 })); err != nil {
		return nil, err
	}
	return out, nil
}

// RenderAblation prints the knockout table.
func RenderAblation(w io.Writer, prop Prop, rows []AblationRow) {
	fmt.Fprintf(w, "Ablation (%s): component knockouts of Eq. 1\n", prop)
	table := [][]string{{"variant", "tweet acc", "tweet NMI", "user acc", "user NMI"}}
	for _, r := range rows {
		cell := func(v float64) string {
			if v == 0 {
				return "–"
			}
			return eval.Percent(v)
		}
		table = append(table, []string{r.Variant,
			cell(r.Tweet.Accuracy), cell(r.Tweet.NMI),
			cell(r.User.Accuracy), cell(r.User.NMI)})
	}
	Table(w, table)
}
