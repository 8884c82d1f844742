package experiments

import (
	"fmt"
	"io"
	"sort"

	"triclust/internal/baseline"
	"triclust/internal/core"
	"triclust/internal/eval"
	"triclust/internal/lexicon"
)

// ——— Table 2: top-8 words with highest frequency per class ———

// WordCount pairs a word with its corpus frequency.
type WordCount struct {
	Word  string
	Count int
}

// Table2Result holds the per-class top words.
type Table2Result struct {
	Pos, Neg []WordCount
}

// Table2TopWords computes the highest-frequency words among tweets of each
// polar class (paper Table 2). topN is 8 in the paper.
func Table2TopWords(s *Setup, topN int) *Table2Result {
	counts := [2]map[string]int{{}, {}}
	for i, tw := range s.Dataset.Corpus.Tweets {
		c := s.Dataset.TweetClass[i]
		if c != lexicon.Pos && c != lexicon.Neg {
			continue
		}
		for _, tok := range tw.Tokens {
			counts[c][tok]++
		}
	}
	top := func(m map[string]int) []WordCount {
		out := make([]WordCount, 0, len(m))
		for w, n := range m {
			out = append(out, WordCount{w, n})
		}
		sort.Slice(out, func(i, j int) bool {
			if out[i].Count != out[j].Count {
				return out[i].Count > out[j].Count
			}
			return out[i].Word < out[j].Word
		})
		if len(out) > topN {
			out = out[:topN]
		}
		return out
	}
	return &Table2Result{Pos: top(counts[lexicon.Pos]), Neg: top(counts[lexicon.Neg])}
}

// RenderTable2 prints the result in the paper's layout.
func RenderTable2(w io.Writer, r *Table2Result) {
	fmt.Fprintln(w, "Table 2: Top words with highest frequency per class")
	line := func(name string, words []WordCount) {
		fmt.Fprintf(w, "%-4s", name)
		for i, wc := range words {
			if i > 0 {
				fmt.Fprint(w, ", ")
			}
			fmt.Fprintf(w, "%s (%d)", wc.Word, wc.Count)
		}
		fmt.Fprintln(w)
	}
	line("Pos", r.Pos)
	line("Neg", r.Neg)
}

// ——— Table 3: statistics of tweets and users ———

// Table3Row is one topic's statistics.
type Table3Row struct {
	Prop                      Prop
	TweetPos, TweetNeg        int
	UserPos, UserNeg, UserNeu int
	UserUnlabeled             int
}

// Table3Stats counts labeled tweets and users (paper Table 3).
func Table3Stats(s *Setup) Table3Row {
	r := Table3Row{Prop: s.Prop}
	for _, tw := range s.Dataset.Corpus.Tweets {
		switch tw.Label {
		case lexicon.Pos:
			r.TweetPos++
		case lexicon.Neg:
			r.TweetNeg++
		}
	}
	for _, u := range s.Dataset.Corpus.Users {
		switch u.Label {
		case lexicon.Pos:
			r.UserPos++
		case lexicon.Neg:
			r.UserNeg++
		case lexicon.Neu:
			r.UserNeu++
		default:
			r.UserUnlabeled++
		}
	}
	return r
}

// RenderTable3 prints rows for any number of topics.
func RenderTable3(w io.Writer, rows []Table3Row) {
	fmt.Fprintln(w, "Table 3: Statistics of tweets and users")
	out := [][]string{{"Prop", "Tweet Pos", "Tweet Neg", "User Pos", "User Neg", "User Neu", "unlabeled"}}
	for _, r := range rows {
		out = append(out, []string{
			fmt.Sprintf("%d", int(r.Prop)),
			fmt.Sprintf("%d", r.TweetPos), fmt.Sprintf("%d", r.TweetNeg),
			fmt.Sprintf("%d", r.UserPos), fmt.Sprintf("%d", r.UserNeg),
			fmt.Sprintf("%d", r.UserNeu), fmt.Sprintf("%d", r.UserUnlabeled),
		})
	}
	Table(w, out)
}

// ——— Tables 4 & 5: method comparisons ———

// MethodScore is one method's metrics on one topic.
type MethodScore struct {
	Method   string
	Group    string // Supervised / Semi-supervised / Unsupervised
	Accuracy float64
	NMI      float64 // NaN when the paper leaves the cell blank
	HasNMI   bool
}

// ComparisonResult holds one topic's method column.
type ComparisonResult struct {
	Prop   Prop
	Scores []MethodScore
}

// Table4TweetLevel reproduces Table 4: tweet-level sentiment comparison of
// SVM, NB, LP-5, LP-10, UserReg-10, ESSA, Tri-clustering and Online
// tri-clustering on one topic.
func Table4TweetLevel(s *Setup, quick bool) (*ComparisonResult, error) {
	truth := s.Dataset.Corpus.TweetLabels()
	owners := s.Owners()
	k := 3
	res := &ComparisonResult{Prop: s.Prop}
	add := func(m, g string, pred []int, withNMI bool) {
		sc := MethodScore{Method: m, Group: g, Accuracy: eval.Accuracy(pred, truth), HasNMI: withNMI}
		if withNMI {
			sc.NMI = eval.NMI(pred, truth)
		}
		res.Scores = append(res.Scores, sc)
	}

	// Supervised: train on an 80% split, score held-out items only, then
	// report that held-out accuracy (the paper's cross-validation
	// analogue). Prediction over all rows; unseen rows carry the truth.
	trainLabels := baseline.RevealLabels(truth, 0.8, 80)
	heldTruth := make([]int, len(truth))
	for i := range truth {
		if trainLabels[i] >= 0 {
			heldTruth[i] = -1
		} else {
			heldTruth[i] = truth[i]
		}
	}
	addHeld := func(m, g string, pred []int) {
		res.Scores = append(res.Scores, MethodScore{Method: m, Group: g,
			Accuracy: eval.Accuracy(pred, heldTruth)})
	}
	svm := baseline.TrainSVM(s.Graph.Xp, trainLabels, k, baseline.DefaultSVMOptions())
	addHeld("SVM", "Supervised", svm.Predict(s.Graph.Xp))
	nb := baseline.TrainNaiveBayes(s.Graph.Xp, trainLabels, k)
	addHeld("NB", "Supervised", nb.Predict(s.Graph.Xp))

	// Semi-supervised.
	lp5 := baseline.LabelPropagationBipartite(s.Graph.Xp, baseline.RevealLabels(truth, 0.05, 5), k, baseline.DefaultLPOptions())
	add("LP-5", "Semi-supervised", lp5, false)
	lp10 := baseline.LabelPropagationBipartite(s.Graph.Xp, baseline.RevealLabels(truth, 0.10, 10), k, baseline.DefaultLPOptions())
	add("LP-10", "Semi-supervised", lp10, false)
	ur := baseline.UserReg(s.Graph.Xp, baseline.RevealLabels(truth, 0.10, 10), owners,
		s.Dataset.Corpus.NumUsers(), k, baseline.DefaultUserRegOptions())
	add("UserReg-10", "Semi-supervised", ur.TweetClasses, false)

	// Unsupervised.
	essaOpts := baseline.DefaultESSAOptions()
	cfg := core.DefaultConfig()
	ocfg := core.DefaultOnlineConfig()
	// The synthetic daily snapshots are thinner than the paper's, so the
	// harness widens the history window (the paper: "time window size w
	// is related to the granularity of timestamp").
	ocfg.Window = 4
	if quick {
		essaOpts.MaxIter = 30
		cfg.MaxIter = 30
		ocfg.MaxIter = 30
	}
	essaPred, _, err := baseline.ESSA(s.Graph.Xp, s.Lexicon.Sf0(s.Graph.Vocab, k, 0.8), k, essaOpts)
	if err != nil {
		return nil, err
	}
	add("ESSA", "Unsupervised", essaPred, true)

	tri, err := s.OfflineFit(cfg)
	if err != nil {
		return nil, err
	}
	add("Tri-clustering", "Unsupervised", tri.TweetClusters(), true)

	onPred, _, err := onlineTweetPredictions(s, ocfg)
	if err != nil {
		return nil, err
	}
	add("Online tri-clustering", "Unsupervised", onPred, true)
	return res, nil
}

// Table5UserLevel reproduces Table 5: user-level comparison of SVM, NB,
// LP-5, LP-10, UserReg-10, BACG, Tri-clustering and Online tri-clustering.
func Table5UserLevel(s *Setup, quick bool) (*ComparisonResult, error) {
	truth := s.Dataset.Corpus.UserLabels()
	tweetTruth := s.Dataset.Corpus.TweetLabels()
	owners := s.Owners()
	k := 3
	m := s.Dataset.Corpus.NumUsers()
	res := &ComparisonResult{Prop: s.Prop}
	add := func(mName, g string, pred []int, withNMI bool) {
		sc := MethodScore{Method: mName, Group: g, Accuracy: eval.Accuracy(pred, truth), HasNMI: withNMI}
		if withNMI {
			sc.NMI = eval.NMI(pred, truth)
		}
		res.Scores = append(res.Scores, sc)
	}

	// Supervised: classify users from their aggregated features (Xu).
	trainU := baseline.RevealLabels(truth, 0.8, 81)
	heldTruth := make([]int, len(truth))
	for i := range truth {
		if trainU[i] >= 0 {
			heldTruth[i] = -1
		} else {
			heldTruth[i] = truth[i]
		}
	}
	addHeld := func(mName, g string, pred []int) {
		res.Scores = append(res.Scores, MethodScore{Method: mName, Group: g,
			Accuracy: eval.Accuracy(pred, heldTruth)})
	}
	svm := baseline.TrainSVM(s.Graph.Xu, trainU, k, baseline.DefaultSVMOptions())
	addHeld("SVM", "Supervised", svm.Predict(s.Graph.Xu))
	nb := baseline.TrainNaiveBayes(s.Graph.Xu, trainU, k)
	addHeld("NB", "Supervised", nb.Predict(s.Graph.Xu))

	// Semi-supervised: LP on the user–user retweet graph [30].
	lp5 := baseline.LabelPropagationGraph(s.Graph.Gu, baseline.RevealLabels(truth, 0.05, 5), k, baseline.DefaultLPOptions())
	add("LP-5", "Semi-supervised", lp5, false)
	lp10 := baseline.LabelPropagationGraph(s.Graph.Gu, baseline.RevealLabels(truth, 0.10, 10), k, baseline.DefaultLPOptions())
	add("LP-10", "Semi-supervised", lp10, false)
	// UserReg user level: aggregate its tweet sentiments [7].
	ur := baseline.UserReg(s.Graph.Xp, baseline.RevealLabels(tweetTruth, 0.10, 10), owners, m, k, baseline.DefaultUserRegOptions())
	add("UserReg-10", "Semi-supervised", ur.UserClasses, false)

	// Unsupervised.
	bacgOpts := baseline.DefaultBACGOptions()
	cfg := core.DefaultConfig()
	ocfg := core.DefaultOnlineConfig()
	ocfg.Window = 4 // see Table4TweetLevel
	if quick {
		bacgOpts.MaxIter = 30
		cfg.MaxIter = 30
		ocfg.MaxIter = 30
	}
	bacgPred, _, err := baseline.BACG(s.Graph.Xu, s.Graph.Gu, k, bacgOpts)
	if err != nil {
		return nil, err
	}
	add("BACG", "Unsupervised", bacgPred, true)

	tri, err := s.OfflineFit(cfg)
	if err != nil {
		return nil, err
	}
	add("Tri-clustering", "Unsupervised", tri.UserClusters(), true)

	_, onUsers, err := onlineTweetPredictions(s, ocfg)
	if err != nil {
		return nil, err
	}
	add("Online tri-clustering", "Unsupervised", onUsers, true)
	return res, nil
}

// onlineTweetPredictions runs the online driver over the corpus and
// stitches per-snapshot predictions back to global tweet indices and
// final per-user classes (last estimate per user). The run is memoized
// on the Setup (keyed by configuration) and fed from the Setup's cached
// snapshot series: Tables 4 and 5 consume the tweet- and user-level
// views of one identical stream, so the second table reuses the first's
// drive instead of rebuilding corpus, series, prior and solver state.
func onlineTweetPredictions(s *Setup, cfg core.OnlineConfig) (tweetPred, userPred []int, err error) {
	key := fmt.Sprintf("%+v", cfg)
	s.mu.Lock()
	if p, ok := s.online[key]; ok {
		s.mu.Unlock()
		return p.tweetPred, p.userPred, nil
	}
	s.mu.Unlock()
	tweetPred, userPred, err = onlineTweetPredictionsUncached(s, cfg)
	if err != nil {
		return nil, nil, err
	}
	s.mu.Lock()
	if s.online == nil {
		s.online = make(map[string]*onlinePredictions)
	}
	s.online[key] = &onlinePredictions{tweetPred: tweetPred, userPred: userPred}
	s.mu.Unlock()
	return tweetPred, userPred, nil
}

func onlineTweetPredictionsUncached(s *Setup, cfg core.OnlineConfig) (tweetPred, userPred []int, err error) {
	steps, err := baseline.OnlineDriverSeries(s.Series(1), s.Dataset.Corpus, s.Lexicon, cfg, 1)
	if err != nil {
		return nil, nil, err
	}
	n := s.Dataset.Corpus.NumTweets()
	m := s.Dataset.Corpus.NumUsers()
	tweetPred = make([]int, n)
	for i := range tweetPred {
		tweetPred[i] = -1
	}
	// Per-user soft memberships accumulated across snapshots with the
	// online decay τ, weighted by how much evidence (tweets) the snapshot
	// carried for the user; the final class is the argmax of the
	// aggregate (Observation 2: user sentiment is stable, so pooling the
	// stream beats any single day's estimate).
	//
	// Cluster ids are aligned *per snapshot* (majority vote against that
	// snapshot's labeled tweets) before stitching: the lexicon prior
	// keeps columns mostly class-aligned, but a skewed day can flip a
	// column, and a single global mapping would then mis-score every
	// other day — the paper likewise evaluates each timestamp separately
	// (Figures 11b/12b).
	userAcc := make([][]float64, m)
	for _, st := range steps {
		clusters := st.Result.TweetClusters()
		truth := make([]int, len(st.Snapshot.TweetIdx))
		for local, g := range st.Snapshot.TweetIdx {
			truth[local] = s.Dataset.Corpus.Tweets[g].Label
		}
		colClass := snapshotColumnMapping(clusters, truth, cfg.K)
		tweetsOf := make(map[int]int, len(st.Snapshot.Active))
		for local, g := range st.Snapshot.TweetIdx {
			tweetPred[g] = colClass[clusters[local]]
			tweetsOf[s.Dataset.Corpus.Tweets[g].User]++
		}
		su := st.Result.Su.Clone()
		su.NormalizeRowsL1()
		for local, g := range st.Snapshot.Active {
			if userAcc[g] == nil {
				userAcc[g] = make([]float64, cfg.K)
			}
			w := float64(1 + tweetsOf[g])
			// Decay older evidence so evolving users track their
			// latest stance; route each column through the snapshot's
			// class alignment.
			for q := range su.Row(local) {
				cls := colClass[q]
				userAcc[g][cls] *= cfg.Tau
				userAcc[g][cls] += w * su.At(local, q)
			}
		}
	}
	userPred = make([]int, m)
	for g := range userPred {
		userPred[g] = -1
		if userAcc[g] == nil {
			continue
		}
		best, bestV := -1, 0.0
		for q, v := range userAcc[g] {
			if v > bestV {
				best, bestV = q, v
			}
		}
		userPred[g] = best
	}
	return tweetPred, userPred, nil
}

// snapshotColumnMapping maps every cluster column to a class: clusters
// with labeled members take their majority class, the rest keep their own
// index (the lexicon-aligned default).
func snapshotColumnMapping(clusters, truth []int, k int) []int {
	out := make([]int, k)
	for c := range out {
		out[c] = c
	}
	for c, cls := range eval.MajorityMapping(clusters, truth) {
		if c >= 0 && c < k && cls >= 0 && cls < k {
			out[c] = cls
		}
	}
	return out
}

// RenderComparison prints Table 4/5-style output for one or two topics.
func RenderComparison(w io.Writer, title string, results []*ComparisonResult) {
	fmt.Fprintln(w, title)
	header := []string{"Group", "Method"}
	for _, r := range results {
		header = append(header, fmt.Sprintf("Acc %s", r.Prop), fmt.Sprintf("NMI %s", r.Prop))
	}
	rows := [][]string{header}
	if len(results) == 0 {
		return
	}
	for i := range results[0].Scores {
		row := []string{results[0].Scores[i].Group, results[0].Scores[i].Method}
		for _, r := range results {
			sc := r.Scores[i]
			row = append(row, eval.Percent(sc.Accuracy))
			if sc.HasNMI {
				row = append(row, eval.Percent(sc.NMI))
			} else {
				row = append(row, "–")
			}
		}
		rows = append(rows, row)
	}
	Table(w, rows)
}

// Score looks up a method's score in a comparison result.
func (r *ComparisonResult) Score(method string) (MethodScore, bool) {
	for _, sc := range r.Scores {
		if sc.Method == method {
			return sc, true
		}
	}
	return MethodScore{}, false
}
