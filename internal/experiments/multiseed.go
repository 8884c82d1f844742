package experiments

import (
	"fmt"
	"io"
	"math"

	"triclust/internal/baseline"
	"triclust/internal/core"
	"triclust/internal/eval"
	"triclust/internal/synth"
	"triclust/internal/text"
	"triclust/internal/tgraph"
)

// SeedStats summarizes one method's metric across corpus seeds.
type SeedStats struct {
	Method    string
	Mean, Std float64
	PerSeed   []float64
}

// MultiSeedResult collects the robustness study.
type MultiSeedResult struct {
	Prop  Prop
	Seeds []int64
	// TweetAcc / UserAcc per method.
	TweetAcc []SeedStats
	UserAcc  []SeedStats
}

// MultiSeed re-generates the topic corpus under several seeds and re-runs
// the unsupervised methods, reporting mean ± std of accuracy — the
// robustness check a single-corpus table cannot give. quick reduces the
// iteration budget.
func MultiSeed(p Prop, scale int, seeds []int64, quick bool) (*MultiSeedResult, error) {
	out := &MultiSeedResult{Prop: p, Seeds: seeds}
	tweetSeries := map[string][]float64{}
	userSeries := map[string][]float64{}
	methods := []string{"ESSA", "Tri-clustering", "KMeans", "BACG"}

	for _, seed := range seeds {
		var cfg synth.Config
		switch p {
		case Prop30:
			cfg = synth.Prop30Config()
		case Prop37:
			cfg = synth.Prop37Config()
		default:
			return nil, fmt.Errorf("experiments: unknown prop %d", p)
		}
		cfg = synth.Scaled(cfg, scale)
		cfg.Seed = seed
		d, err := synth.Generate(cfg)
		if err != nil {
			return nil, err
		}
		g := tgraph.Build(d.Corpus, tgraph.BuildOptions{Weighting: text.TFIDF, MinDF: 2})
		lex := d.PlantedLexicon(0.4, 0.05, seed)
		s := &Setup{Prop: p, Dataset: d, Graph: g, Lexicon: lex}

		iters := 100
		if quick {
			iters = 30
		}
		tweetTruth := d.Corpus.TweetLabels()
		userTruth := d.Corpus.UserLabels()

		essaOpts := baseline.DefaultESSAOptions()
		essaOpts.MaxIter = iters
		essaPred, _, err := baseline.ESSA(g.Xp, lex.Sf0(g.Vocab, 3, 0.8), 3, essaOpts)
		if err != nil {
			return nil, err
		}
		tweetSeries["ESSA"] = append(tweetSeries["ESSA"], eval.Accuracy(essaPred, tweetTruth))

		triCfg := core.DefaultConfig()
		triCfg.MaxIter = iters
		tri, err := core.FitOffline(s.Problem(3), triCfg)
		if err != nil {
			return nil, err
		}
		tweetSeries["Tri-clustering"] = append(tweetSeries["Tri-clustering"],
			eval.Accuracy(tri.TweetClusters(), tweetTruth))
		userSeries["Tri-clustering"] = append(userSeries["Tri-clustering"],
			eval.Accuracy(tri.UserClusters(), userTruth))

		km := baseline.KMeans(g.Xp, 3, baseline.DefaultKMeansOptions())
		tweetSeries["KMeans"] = append(tweetSeries["KMeans"], eval.Accuracy(km, tweetTruth))

		bacgOpts := baseline.DefaultBACGOptions()
		bacgOpts.MaxIter = iters
		bacgPred, _, err := baseline.BACG(g.Xu, g.Gu, 3, bacgOpts)
		if err != nil {
			return nil, err
		}
		userSeries["BACG"] = append(userSeries["BACG"], eval.Accuracy(bacgPred, userTruth))
	}

	for _, m := range methods {
		if vals, ok := tweetSeries[m]; ok {
			out.TweetAcc = append(out.TweetAcc, statsOf(m, vals))
		}
		if vals, ok := userSeries[m]; ok {
			out.UserAcc = append(out.UserAcc, statsOf(m, vals))
		}
	}
	return out, nil
}

func statsOf(method string, vals []float64) SeedStats {
	s := SeedStats{Method: method, PerSeed: vals}
	if len(vals) == 0 {
		return s
	}
	for _, v := range vals {
		s.Mean += v
	}
	s.Mean /= float64(len(vals))
	for _, v := range vals {
		d := v - s.Mean
		s.Std += d * d
	}
	s.Std = math.Sqrt(s.Std / float64(len(vals)))
	return s
}

// RenderMultiSeed prints the robustness table.
func RenderMultiSeed(w io.Writer, r *MultiSeedResult) {
	fmt.Fprintf(w, "Multi-seed robustness (%s, %d seeds): accuracy mean ± std\n", r.Prop, len(r.Seeds))
	rows := [][]string{{"level", "method", "mean", "std"}}
	for _, s := range r.TweetAcc {
		rows = append(rows, []string{"tweet", s.Method, eval.Percent(s.Mean), eval.Percent(s.Std)})
	}
	for _, s := range r.UserAcc {
		rows = append(rows, []string{"user", s.Method, eval.Percent(s.Mean), eval.Percent(s.Std)})
	}
	Table(w, rows)
}
