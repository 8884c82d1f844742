// Benchmarks regenerating each of the paper's tables and figures (§5).
// One testing.B target per artifact; each runs the corresponding
// experiments-harness function on a scaled-down preset corpus so that
// `go test -bench=. -benchmem` completes on a laptop. Run
// `go run ./cmd/experiments -scale 1` for paper-scale output.
package triclust_test

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"

	"triclust"
	"triclust/internal/codec"
	"triclust/internal/core"
	"triclust/internal/experiments"
	"triclust/internal/text"
	"triclust/internal/tgraph"
)

// benchScale shrinks the preset corpora; see synth.Scaled.
const benchScale = 8

var (
	benchSetups   = map[experiments.Prop]*experiments.Setup{}
	benchSetupsMu sync.Mutex
)

func benchSetup(b *testing.B, p experiments.Prop) *experiments.Setup {
	b.Helper()
	benchSetupsMu.Lock()
	defer benchSetupsMu.Unlock()
	if s, ok := benchSetups[p]; ok {
		return s
	}
	s, err := experiments.NewSetup(p, benchScale)
	if err != nil {
		b.Fatalf("NewSetup: %v", err)
	}
	benchSetups[p] = s
	return s
}

func BenchmarkTable2TopWords(b *testing.B) {
	s := benchSetup(b, experiments.Prop37)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := experiments.Table2TopWords(s, 8); len(r.Pos) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkTable3Stats(b *testing.B) {
	s := benchSetup(b, experiments.Prop30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := experiments.Table3Stats(s); r.TweetPos == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkFigure4FeatureEvolution(b *testing.B) {
	s := benchSetup(b, experiments.Prop30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := experiments.Figure4FeatureEvolution(s); r.User < 0 {
			b.Fatal("no user")
		}
	}
}

func BenchmarkFigure6ParamSweepUser(b *testing.B) {
	s := benchSetup(b, experiments.Prop30)
	alphas := []float64{0, 0.5, 1}
	betas := []float64{0, 0.8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure6and7ParamSweep(s, alphas, betas, 15)
		if err != nil {
			b.Fatal(err)
		}
		_ = r.Best(func(c experiments.SweepCell) float64 { return c.User.Accuracy })
	}
}

func BenchmarkFigure7ParamSweepTweet(b *testing.B) {
	s := benchSetup(b, experiments.Prop30)
	alphas := []float64{0.1}
	betas := []float64{0.8, 0.9}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure6and7ParamSweep(s, alphas, betas, 15)
		if err != nil {
			b.Fatal(err)
		}
		_ = r.Best(func(c experiments.SweepCell) float64 { return c.Tweet.Accuracy })
	}
}

func BenchmarkFigure8Convergence(b *testing.B) {
	s := benchSetup(b, experiments.Prop30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure8Convergence(s, 30); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4TweetComparison(b *testing.B) {
	s := benchSetup(b, experiments.Prop30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table4TweetLevel(s, true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5UserComparison(b *testing.B) {
	s := benchSetup(b, experiments.Prop30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table5UserLevel(s, true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure9OnlineAlphaTau(b *testing.B) {
	s := benchSetup(b, experiments.Prop30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure9OnlineAlphaTau(s, []float64{0.9}, []float64{0.5, 0.9}, 15); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure10Gamma(b *testing.B) {
	s := benchSetup(b, experiments.Prop30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure10Gamma(s, []float64{0, 0.2}, 15); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure11OnlineProp30(b *testing.B) {
	s := benchSetup(b, experiments.Prop30)
	cfg := core.DefaultOnlineConfig()
	cfg.MaxIter = 15
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure11and12Online(s, cfg, 1)
		if err != nil {
			b.Fatal(err)
		}
		sum := r.Summarize()
		if sum.OnlineTime > sum.FullTime {
			b.Log("warning: online slower than full-batch at bench scale")
		}
	}
}

func BenchmarkFigure12OnlineProp37(b *testing.B) {
	s := benchSetup(b, experiments.Prop37)
	cfg := core.DefaultOnlineConfig()
	cfg.MaxIter = 15
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure11and12Online(s, cfg, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// ——— component benchmarks: the three solver kernels the complexity
// analysis (§3.2, §4.2) is about ———

func BenchmarkOfflineFit(b *testing.B) {
	s := benchSetup(b, experiments.Prop30)
	cfg := core.DefaultConfig()
	cfg.MaxIter = 20
	p := s.Problem(cfg.K)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.FitOffline(p, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOfflineSweepIteration(b *testing.B) {
	// One multiplicative-update sweep (the O(rk(nl+ml+nm+m²)) unit).
	s := benchSetup(b, experiments.Prop30)
	cfg := core.DefaultConfig()
	cfg.MaxIter = 1
	cfg.Tol = -1
	p := s.Problem(cfg.K)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.FitOffline(p, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation(b *testing.B) {
	// Design-choice evidence: component knockouts of the Eq. 1 objective.
	s := benchSetup(b, experiments.Prop30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Ablation(s, 15)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 6 {
			b.Fatal("wrong variant count")
		}
	}
}

func BenchmarkOnlineStep(b *testing.B) {
	// One Algorithm-2 step on a single snapshot (the O(rk(n(t)l + m(t)l
	// + n(t)m(t) + m(t)²)) unit of §4.2).
	s := benchSetup(b, experiments.Prop30)
	cfg := core.DefaultOnlineConfig()
	cfg.MaxIter = 15
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		o := core.NewOnline(cfg)
		b.StartTimer()
		// Feed the first two non-empty daily snapshots.
		fed := 0
		lo, hi, _ := s.Dataset.Corpus.TimeRange()
		for t := lo; t <= hi && fed < 2; t++ {
			snap := tgraphSnapshot(s, t)
			if snap == nil || snap.Graph.Xp.Rows() == 0 {
				continue
			}
			p := &core.Problem{
				Xp:  snap.Graph.Xp,
				Xu:  snap.Graph.Xu,
				Xr:  snap.Graph.Xr,
				Gu:  snap.Graph.Gu,
				Sf0: s.Lexicon.Sf0(snap.Graph.Vocab, cfg.K, 0.8),
			}
			if _, err := o.Step(t, p, snap.Active); err != nil {
				b.Fatal(err)
			}
			fed++
		}
	}
}

var benchSnapCache = map[string]*tgraph.Snapshot{}

func tgraphSnapshot(s *experiments.Setup, t int) *tgraph.Snapshot {
	key := fmt.Sprintf("%d-%d", s.Prop, t)
	if snap, ok := benchSnapCache[key]; ok {
		return snap
	}
	snap := tgraph.BuildSnapshot(s.Dataset.Corpus, t, t+1, s.Graph.Vocab, text.TFIDF)
	benchSnapCache[key] = snap
	return snap
}

// ——— substrate kernel benches ———

func BenchmarkSpMM(b *testing.B) {
	s := benchSetup(b, experiments.Prop30)
	xp := s.Graph.Xp
	dense := s.Problem(3).Sf0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := xp.MulDense(dense); out.Rows() != xp.Rows() {
			b.Fatal("bad dims")
		}
	}
}

func BenchmarkTokenizePipeline(b *testing.B) {
	tok := text.NewTokenizer(text.DefaultTokenizerOptions())
	tweet := "RT @alice Support the #California #GMO Labeling Ballot Initiative #prop37 https://example.com now!!!"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if toks := tok.Tokenize(tweet); len(toks) == 0 {
			b.Fatal("no tokens")
		}
	}
}

func BenchmarkGraphBuild(b *testing.B) {
	s := benchSetup(b, experiments.Prop30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := tgraph.Build(s.Dataset.Corpus, tgraph.BuildOptions{Weighting: text.TFIDF, MinDF: 2})
		if g.Xp.NNZ() == 0 {
			b.Fatal("empty graph")
		}
	}
}

// ——— durable state: what a compaction fsyncs, a replica install ships
// and GET …/snapshot serves ———

var snapBench struct {
	once sync.Once
	tp   *triclust.Topic
	snap []byte
	err  error
}

// snapshotBenchTopic streams the Prop37 preset at full size through a
// topic, day by day, and returns it with its snapshot: the state the
// online_replay workload of bench/ ends on — full temporal window, every
// user's history. The solver is capped because sweeps change the floats,
// not the shape.
func snapshotBenchTopic(b *testing.B) (*triclust.Topic, []byte) {
	b.Helper()
	snapBench.once.Do(func() {
		s, err := experiments.NewSetup(experiments.Prop37, 1)
		if err != nil {
			snapBench.err = err
			return
		}
		cfg := triclust.OnlineConfig{}
		cfg.MaxIter = 5
		tp, err := triclust.NewTopic(s.Dataset.Corpus.Users,
			triclust.WithLexicon(s.Lexicon), triclust.WithSolverConfig(cfg))
		if err != nil {
			snapBench.err = err
			return
		}
		lo, hi, _ := s.Dataset.Corpus.TimeRange()
		days := make([][]triclust.Tweet, hi-lo+1)
		for _, tw := range s.Dataset.Corpus.Tweets {
			tw.RetweetOf = -1 // indices are corpus-global
			days[tw.Time-lo] = append(days[tw.Time-lo], tw)
		}
		for d, batch := range days {
			if _, err := tp.Process(lo+d, batch); err != nil {
				snapBench.err = err
				return
			}
		}
		var buf bytes.Buffer
		snapBench.err = tp.Snapshot(&buf)
		snapBench.tp, snapBench.snap = tp, buf.Bytes()
	})
	if snapBench.err != nil {
		b.Fatal(snapBench.err)
	}
	return snapBench.tp, snapBench.snap
}

// benchSnapshotOp runs one snapshot operation as a sub-benchmark and
// reports the size of the snapshot it writes or reads.
func benchSnapshotOp(b *testing.B, name string, snap []byte, op func() error) {
	b.Run(name, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := op(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(snap)), "snapshot-bytes")
	})
}

// BenchmarkSnapshot measures writing the durable state, at two layers:
// codec is the encoder alone on a ready state, topic adds the state
// export under the topic lock.
func BenchmarkSnapshot(b *testing.B) {
	tp, snap := snapshotBenchTopic(b)
	st, err := codec.Decode(bytes.NewReader(snap))
	if err != nil {
		b.Fatal(err)
	}
	benchSnapshotOp(b, "codec", snap, func() error { return codec.Encode(io.Discard, st) })
	benchSnapshotOp(b, "topic", snap, func() error { return tp.Snapshot(io.Discard) })
}

// BenchmarkRestore measures reading it back: codec is checksum and
// decode, topic adds session rebuild and the first published read view.
func BenchmarkRestore(b *testing.B) {
	_, snap := snapshotBenchTopic(b)
	benchSnapshotOp(b, "codec", snap, func() error { _, err := codec.Decode(bytes.NewReader(snap)); return err })
	benchSnapshotOp(b, "topic", snap, func() error { _, err := triclust.Restore(bytes.NewReader(snap)); return err })
}
