// Package experiments regenerates every table and figure of the paper's
// evaluation section (§5) on the synthetic corpora: Tables 2–5 and
// Figures 4, 6–12. Each experiment has a function returning structured
// results plus a renderer that prints the same rows/series the paper
// reports. Absolute numbers differ from the paper (the corpus is
// synthetic); the comparisons — who wins, by roughly what factor, where
// crossovers fall — are the reproduction target (see EXPERIMENTS.md).
package experiments

import (
	"fmt"
	"io"
	"strings"
	"sync"

	"triclust/internal/core"
	"triclust/internal/lexicon"
	"triclust/internal/synth"
	"triclust/internal/text"
	"triclust/internal/tgraph"
)

// Prop identifies which of the two evaluation topics to simulate.
type Prop int

const (
	// Prop30 is "Temporary Taxes to Fund Education" (balanced-ish).
	Prop30 Prop = 30
	// Prop37 is "Genetically Engineered Foods, Labeling" (heavy pos skew).
	Prop37 Prop = 37
)

func (p Prop) String() string { return fmt.Sprintf("Prop %d", int(p)) }

// Setup bundles everything an experiment needs for one topic, plus a
// memo of the expensive artifacts several experiments share — the daily
// snapshot series, the offline tri-clustering fit and the online driver
// run. Tables 4 and 5, for example, both need the same offline fit and
// the same online stream over the same corpus; before the memo each
// comparison rebuilt them from scratch. Results are deterministic
// functions of (corpus, config), so sharing them is observationally
// identical to recomputation.
type Setup struct {
	Prop    Prop
	Dataset *synth.Dataset
	Graph   *tgraph.Graph
	Lexicon *lexicon.Lexicon

	mu      sync.Mutex
	series  map[int][]*tgraph.Snapshot
	offline map[string]*core.Result
	online  map[string]*onlinePredictions
}

// onlinePredictions caches one online-driver run stitched back to global
// tweet/user indices (see onlineTweetPredictions).
type onlinePredictions struct {
	tweetPred, userPred []int
}

// Series returns the daily snapshot series of the corpus (step-wide
// windows, minDF 2, TF-IDF — the configuration every comparison uses),
// built once per Setup.
func (s *Setup) Series(step int) []*tgraph.Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.series == nil {
		s.series = make(map[int][]*tgraph.Snapshot)
	}
	if snaps, ok := s.series[step]; ok {
		return snaps
	}
	snaps := tgraph.SnapshotSeries(s.Dataset.Corpus, step, 2, text.TFIDF)
	s.series[step] = snaps
	return snaps
}

// OfflineFit returns the offline tri-clustering fit of the full corpus
// at the given configuration, computed once per Setup. The returned
// result is shared: callers must treat it as read-only.
func (s *Setup) OfflineFit(cfg core.Config) (*core.Result, error) {
	key := fmt.Sprintf("%+v", cfg)
	s.mu.Lock()
	if res, ok := s.offline[key]; ok {
		s.mu.Unlock()
		return res, nil
	}
	s.mu.Unlock()
	res, err := core.FitOffline(s.Problem(cfg.K), cfg)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.offline == nil {
		s.offline = make(map[string]*core.Result)
	}
	s.offline[key] = res
	s.mu.Unlock()
	return res, nil
}

// NewSetup generates the corpus for a topic at the given scale divisor
// (1 = paper scale, larger = proportionally smaller for fast runs) and
// builds its tripartite graph and lexicon.
func NewSetup(p Prop, scale int) (*Setup, error) {
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
	d, err := synth.Generate(cfg)
	if err != nil {
		return nil, err
	}
	g := tgraph.Build(d.Corpus, tgraph.BuildOptions{Weighting: text.TFIDF, MinDF: 2})
	// Imperfect topical word lists (≈40% coverage, 5% misassignments)
	// merged with a general polarity lexicon — mirroring the
	// automatically built "Yes"/"No" lists of [28].
	lex := d.PlantedLexicon(0.4, 0.05, int64(p))
	lex.Merge(lexicon.Builtin())
	return &Setup{Prop: p, Dataset: d, Graph: g, Lexicon: lex}, nil
}

// Problem assembles the core.Problem for the full corpus at rank k.
func (s *Setup) Problem(k int) *core.Problem {
	return &core.Problem{
		Xp:  s.Graph.Xp,
		Xu:  s.Graph.Xu,
		Xr:  s.Graph.Xr,
		Gu:  s.Graph.Gu,
		Sf0: s.Lexicon.Sf0(s.Graph.Vocab, k, 0.8),
	}
}

// Owners returns the tweet→user index vector.
func (s *Setup) Owners() []int {
	out := make([]int, s.Dataset.Corpus.NumTweets())
	for i := range s.Dataset.Corpus.Tweets {
		out[i] = s.Dataset.Corpus.Tweets[i].User
	}
	return out
}

// ——— rendering helpers ———

// Table renders column-aligned rows. The first row is the header.
func Table(w io.Writer, rows [][]string) {
	if len(rows) == 0 {
		return
	}
	widths := make([]int, len(rows[0]))
	for _, r := range rows {
		for j, cell := range r {
			if j < len(widths) && len(cell) > widths[j] {
				widths[j] = len(cell)
			}
		}
	}
	for i, r := range rows {
		var b strings.Builder
		for j, cell := range r {
			if j > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[j], cell)
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
		if i == 0 {
			fmt.Fprintln(w, strings.Repeat("-", len(strings.TrimRight(b.String(), " "))))
		}
	}
}

// Series renders an (x, y...) numeric series as aligned columns, one
// header per y column.
func Series(w io.Writer, xName string, x []float64, cols map[string][]float64, order []string) {
	rows := [][]string{append([]string{xName}, order...)}
	for i := range x {
		row := []string{fmt.Sprintf("%g", x[i])}
		for _, name := range order {
			row = append(row, fmt.Sprintf("%.2f", cols[name][i]))
		}
		rows = append(rows, row)
	}
	Table(w, rows)
}
