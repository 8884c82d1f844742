// Command triclust runs tripartite sentiment co-clustering on a corpus.
//
// Offline over a whole corpus:
//
//	triclust -in corpus.json
//
// Online over daily snapshots:
//
//	triclust -in corpus.json -online
//
// -in accepts .json (cmd/datagen output), .csv or .tsv
// (user,time,text[,retweet_of[,label]] with a header row).
// Without -in it generates a small synthetic demo corpus. When the corpus
// carries ground-truth labels, accuracy and NMI are reported.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"triclust"
	"triclust/internal/eval"
	"triclust/internal/par"
	"triclust/internal/synth"
	"triclust/internal/tgraph"
)

func main() {
	in := flag.String("in", "", "corpus file: .json, .csv or .tsv (default: generate a demo corpus)")
	online := flag.Bool("online", false, "run the online algorithm over daily snapshots")
	k := flag.Int("k", 3, "number of sentiment classes (2 or 3)")
	alpha := flag.Float64("alpha", -1, "lexicon/temporal-feature weight α (default per mode)")
	beta := flag.Float64("beta", 0.8, "user-graph weight β")
	gamma := flag.Float64("gamma", 0.2, "user temporal weight γ (online)")
	tau := flag.Float64("tau", 0.9, "history decay τ (online)")
	maxIter := flag.Int("iters", 100, "maximum update sweeps")
	seed := flag.Int64("seed", 1, "solver RNG seed")
	top := flag.Int("top", 5, "show this many example tweets per class")
	procs := flag.Int("procs", runtime.GOMAXPROCS(0), "parallelism width of the compute kernels")
	flag.Parse()
	par.SetProcs(*procs)

	corpus, err := loadCorpus(*in)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("corpus: %d tweets, %d users\n", corpus.NumTweets(), corpus.NumUsers())

	if *online {
		runOnline(corpus, *k, *alpha, *beta, *gamma, *tau, *maxIter, *seed)
		return
	}
	runOffline(corpus, *k, *alpha, *beta, *maxIter, *seed, *top)
}

func loadCorpus(path string) (*triclust.Corpus, error) {
	if path == "" {
		cfg := synth.DefaultConfig()
		d, err := synth.Generate(cfg)
		if err != nil {
			return nil, err
		}
		fmt.Println("no -in given: generated a synthetic demo corpus (see cmd/datagen)")
		return d.Corpus, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	switch {
	case strings.HasSuffix(path, ".csv"):
		return tgraph.ReadCSV(f, tgraph.CSVOptions{HasHeader: true})
	case strings.HasSuffix(path, ".tsv"):
		return tgraph.ReadCSV(f, tgraph.CSVOptions{Comma: '\t', HasHeader: true})
	default:
		return tgraph.ReadJSON(f)
	}
}

func runOffline(corpus *triclust.Corpus, k int, alpha, beta float64, maxIter int, seed int64, top int) {
	cfg := triclust.DefaultConfig()
	cfg.K = k
	if alpha >= 0 {
		cfg.Alpha = alpha
	}
	cfg.Beta = beta
	cfg.MaxIter = maxIter
	cfg.Seed = seed
	topic, err := triclust.NewTopic(nil, triclust.WithSolverConfig(triclust.OnlineConfig{Config: cfg}))
	if err != nil {
		fatal(err)
	}

	start := time.Now()
	res, err := topic.FitCorpus(corpus)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("offline fit: %d iterations (converged=%v) in %v\n",
		res.Iterations, res.Converged, time.Since(start).Round(time.Millisecond))

	reportAccuracy(res, corpus)
	showExamples(res, corpus, k, top)
}

func runOnline(corpus *triclust.Corpus, k int, alpha, beta, gamma, tau float64, maxIter int, seed int64) {
	cfg := triclust.DefaultOnlineConfig()
	cfg.K = k
	if alpha >= 0 {
		cfg.Alpha = alpha
	}
	cfg.Beta = beta
	cfg.Gamma = gamma
	cfg.Tau = tau
	cfg.MaxIter = maxIter
	cfg.Seed = seed
	st, err := triclust.NewTopic(corpus.Users, triclust.WithSolverConfig(cfg))
	if err != nil {
		fatal(err)
	}
	lo, hi, ok := corpus.TimeRange()
	if !ok {
		fatal(fmt.Errorf("empty corpus"))
	}
	total := time.Duration(0)
	for day := lo; day <= hi; day++ {
		// Slice remaps same-day retweet targets to batch-local indices and
		// drops targets posted on another day, as Process expects.
		sub, _ := corpus.Slice(day, day+1)
		batch := sub.Tweets
		if len(batch) == 0 {
			continue
		}
		start := time.Now()
		out, err := st.Process(day, batch)
		if err != nil {
			fatal(err)
		}
		el := time.Since(start)
		total += el
		pred := make([]int, len(batch))
		truth := make([]int, len(batch))
		for i := range batch {
			pred[i] = out.TweetSentiments[i].Class
			truth[i] = batch[i].Label
		}
		acc := eval.Accuracy(pred, truth)
		fmt.Printf("day %3d: n(t)=%4d users=%4d iters=%3d time=%8s tweet-acc=%5.1f%%\n",
			day, len(batch), len(out.ActiveUsers), out.Iterations,
			el.Round(time.Millisecond), acc*100)
	}
	fmt.Printf("total online time: %v\n", total.Round(time.Millisecond))
}

func reportAccuracy(res *triclust.Result, corpus *triclust.Corpus) {
	tweetPred := make([]int, len(res.TweetSentiments))
	for i, s := range res.TweetSentiments {
		tweetPred[i] = s.Class
	}
	tweetTruth := corpus.TweetLabels()
	if m := eval.Evaluate(tweetPred, tweetTruth); m.Accuracy > 0 {
		fmt.Printf("tweet-level: accuracy %.2f%%, NMI %.2f%%\n", m.Accuracy*100, m.NMI*100)
	}
	userPred := make([]int, len(res.UserSentiments))
	for i, s := range res.UserSentiments {
		userPred[i] = s.Class
	}
	if m := eval.Evaluate(userPred, corpus.UserLabels()); m.Accuracy > 0 {
		fmt.Printf("user-level:  accuracy %.2f%%, NMI %.2f%%\n", m.Accuracy*100, m.NMI*100)
	}
}

func showExamples(res *triclust.Result, corpus *triclust.Corpus, k, top int) {
	if top <= 0 {
		return
	}
	for cls := 0; cls < k; cls++ {
		fmt.Printf("examples (%s):\n", triclust.ClassName(cls))
		shown := 0
		for i, s := range res.TweetSentiments {
			if s.Class != cls || shown >= top {
				continue
			}
			toks := corpus.Tweets[i].Tokens
			if len(toks) > 8 {
				toks = toks[:8]
			}
			fmt.Printf("  [%.2f] %v\n", s.Confidence, toks)
			shown++
		}
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "triclust: %v\n", err)
	os.Exit(1)
}
