package main

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"time"

	"triclust"
	"triclust/internal/codec"
	"triclust/internal/core"
	"triclust/internal/engine"
	"triclust/internal/eval"
	"triclust/internal/text"
	"triclust/internal/tgraph"
)

// tracedPasses is how many times the traced run repeats each traced
// pass. Passes are identical, so span k of every pass timed the same
// call; per-layer times are summed from each span's quietest duration,
// the rule the untraced run's timings follow (see summarise).
const tracedPasses = 3

// apiRepeats is how many times the traced run repeats a public-API call
// it times on its own (snapshot, restore, read blocks); the quietest
// repeat is reported.
const apiRepeats = 9

// readBlock is the number of UserEstimate reads timed as one block.
const readBlock = 4096

// tracedRuns makes tracedPasses traced passes. One pass drives k
// pipelines, each under a tracer of its own; passes are identical, so
// span j of a pipeline timed the same call in every pass. It returns
// each pipeline's first-pass spans and, per span name, the sum of every
// span's quietest duration over the passes.
func tracedRuns(k int, pass func(trs []*tracer) error) ([][]span, map[string]int64, error) {
	first := make([][]span, k)
	quiet := make([][]int64, k)
	for i := 0; i < tracedPasses; i++ {
		runtime.GC()
		trs := make([]*tracer, k)
		for f := range trs {
			trs[f] = newTracer()
		}
		if err := pass(trs); err != nil {
			return nil, nil, err
		}
		for f, tr := range trs {
			if i == 0 {
				first[f] = tr.spans
				quiet[f] = make([]int64, len(tr.spans))
				for j, sp := range tr.spans {
					quiet[f][j] = sp.End - sp.Start
				}
				continue
			}
			if len(tr.spans) != len(first[f]) {
				return nil, nil, fmt.Errorf("traced pass %d recorded %d spans, pass 0 recorded %d", i, len(tr.spans), len(first[f]))
			}
			for j, sp := range tr.spans {
				if sp.Name != first[f][j].Name {
					return nil, nil, fmt.Errorf("traced pass %d span %d is %s, pass 0 has %s", i, j, sp.Name, first[f][j].Name)
				}
				quiet[f][j] = min(quiet[f][j], sp.End-sp.Start)
			}
		}
	}
	total := map[string]int64{}
	for f := range first {
		for j, sp := range first[f] {
			total[sp.Name] += quiet[f][j]
		}
	}
	return first, total, nil
}

// layerValues turns span totals and layer counts into the per-layer
// metrics that the library and the daemon workloads share.
func layerValues(v map[string]float64, total map[string]int64, lc *layerCounts) {
	kt := float64(lc.tweets) / 1e3
	nb := float64(lc.batches)
	v["text.tokenize_us_per_ktweet"] = ratio(us(total["text.tokenize"]), kt)
	v["text.tokens_per_tweet"] = ratio(float64(lc.tokens), float64(lc.tweets))
	v["text.vocab_build_ms"] = ms(total["text.vocab_build"])
	v["text.vocab_size"] = float64(lc.vocabSize)
	v["lexicon.prior_ms"] = ms(total["lexicon.prior"])
	v["tgraph.build_us_per_ktweet"] = ratio(us(total["tgraph.build"]), kt)
	v["tgraph.nnz_per_tweet"] = ratio(float64(lc.nnz), float64(lc.tweets))
	v["conform.score_ns_per_batch"] = ratio(float64(total["conform.score"]+total["conform.observe"]), nb)
	v["core.solve_us_per_ktweet"] = ratio(us(total["core.solve"]), kt)
	v["core.us_per_iter_ktweet"] = ratio(us(total["core.solve"]), lc.iterKtweets)
	v["par.split_share"] = ratio(lc.splitWork, lc.allWork)
	// What Session.Process (or Model.FitCorpus) does itself: its time
	// less the layers it calls.
	var layers int64
	for _, name := range layerSpans {
		layers += total[name]
	}
	v["engine.self_us_per_ktweet"] = ratio(us(total["engine.process"]-layers), kt)
	v["engine.view_build_us_per_batch"] = ratio(us(total["engine.view_build"]), nb)
}

func allocValues(v map[string]float64, sc *sessionCounts, lc *layerCounts) {
	v["engine.allocs_per_batch"] = ratio(float64(sc.allocs), float64(lc.batches))
	v["engine.alloc_kb_per_ktweet"] = ratio(float64(sc.allocBytes)/1024, float64(lc.tweets)/1e3)
	v["engine.heap_live_mb"] = float64(sc.heapLive) / (1 << 20)
}

// snapshotCodec measures codec.Decode and codec.Encode on a snapshot.
func snapshotCodec(v map[string]float64, snap []byte) error {
	mb := float64(len(snap)) / 1e6
	st, err := codec.Decode(bytes.NewReader(snap))
	if err != nil {
		return err
	}
	dec := quietTime(apiRepeats, func() { _, err = codec.Decode(bytes.NewReader(snap)) })
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	enc := quietTime(apiRepeats, func() {
		buf.Reset()
		err = codec.Encode(&buf, st)
	})
	if err != nil {
		return err
	}
	v["codec.snapshot_decode_mb_per_s"] = ratio(mb, dec.Seconds())
	v["codec.snapshot_encode_mb_per_s"] = ratio(mb, enc.Seconds())
	return nil
}

// quietTime runs fn n times and returns the quietest run's duration.
func quietTime(n int, fn func()) time.Duration {
	took := make([]int64, n)
	for i := range took {
		t0 := time.Now()
		fn()
		took[i] = int64(time.Since(t0))
	}
	return time.Duration(slices.Min(took))
}

// topicAPI times the public Topic calls the recovery and read metrics
// rest on: Snapshot, Restore, and blocks of ReadView().UserEstimate.
func topicAPI(v map[string]float64, tp *triclust.Topic) ([]byte, error) {
	var snap bytes.Buffer
	var err error
	v["topic.snapshot_ms"] = ms(int64(quietTime(apiRepeats, func() {
		snap.Reset()
		err = tp.Snapshot(&snap)
	})))
	if err != nil {
		return nil, err
	}
	v["topic.restore_ms"] = ms(int64(quietTime(apiRepeats, func() {
		_, err = triclust.Restore(bytes.NewReader(snap.Bytes()))
	})))
	if err != nil {
		return nil, err
	}
	users := tp.Users()
	if users > 0 {
		hits := 0
		block := quietTime(apiRepeats, func() {
			for i := 0; i < readBlock; i++ {
				if _, ok := tp.ReadView().UserEstimate(i % users); ok {
					hits++
				}
			}
		})
		runtime.KeepAlive(hits)
		v["topic.read_ns"] = float64(block) / readBlock
	}
	return snap.Bytes(), nil
}

// streamLayers runs sp through the engine-level pass (Session.Process +
// Session.BuildView) and through the shadow pipeline in lockstep: each
// batch goes through the engine's own call and then, at once, through
// the layers one by one, so that what is compared between the two ran
// milliseconds apart, in the same weather. It fills the metrics of the
// layers under Topic.Process, checks the shadow against the engine's own
// pass, and returns both passes' counts and their spans (engine-level
// first).
func streamLayers(r *result, sp *streamSpec) (*sessionCounts, *layerCounts, []span, error) {
	var sc *sessionCounts
	var lc *layerCounts
	spans, total, err := tracedRuns(2, func(trs []*tracer) error {
		session, err := newSessionRun(trs[0], sp)
		if err != nil {
			return err
		}
		shadow := newShadowRun(trs[1], sp)
		for b := range sp.batches {
			if err := session.step(b); err != nil {
				return err
			}
			if err := shadow.step(b); err != nil {
				return err
			}
		}
		lc = shadow.counts()
		shadow = nil // not part of the heap the session keeps alive
		sc = session.counts()
		return nil
	})
	if err != nil {
		return nil, nil, nil, err
	}
	layerValues(r.values, total, lc)
	allocValues(r.values, sc, lc)
	checkShadow(r, total)
	return sc, lc, append(spans[0], rebase(spans[1], len(spans[0]))...), nil
}

// layerSpans are the shadow's spans around the calls Session.Process (or
// Model.FitCorpus) makes into the layers below it.
var layerSpans = []string{
	"text.tokenize", "text.vocab_build", "lexicon.prior", "tgraph.build",
	"core.solve", "conform.score", "conform.observe",
}

// shadowTolerance is how far the shadow pipeline may stray from the
// engine's own call before the run fails. The shadow's layer spans are
// the children of the real engine.process span, whose self time is what
// they leave over: they may not exceed it by more than the tolerance.
// And the whole shadow batch — the layers plus the shadow's own copy of
// the engine's glue — has to stay within the tolerance of the engine's
// call either way, or the per-layer numbers describe some other program.
// Taken in lockstep the two agree to 2 % on a quiet machine.
const shadowTolerance = 0.10

// checkShadow records trace.accounted_share (layer spans ÷ the engine's
// own span) and noise.trace_overhead (shadow batch ÷ the engine's own
// span), all from traced passes made turn about, and fails the run when
// either is out of bounds.
func checkShadow(r *result, total map[string]int64) {
	parent := float64(total["engine.process"])
	var layers int64
	for _, name := range layerSpans {
		layers += total[name]
	}
	share := ratio(float64(layers), parent)
	overhead := ratio(float64(total["shadow.batch"]), parent)
	r.values["trace.accounted_share"] = share
	r.values["noise.trace_overhead"] = overhead
	if !r.fullSize {
		return
	}
	if share <= 0 || share > 1+shadowTolerance {
		r.fail("the shadow's layer spans cover %.4f of the engine's own span", share)
	}
	if overhead < 1-shadowTolerance || overhead > 1+shadowTolerance {
		r.fail("the shadow pipeline takes %.4f of the engine's own span", overhead)
	}
}

// onlineSpec is the online_replay stream as the engine sees it: the
// configuration NewTopic assembles from WithLexicon alone.
func onlineSpec(in *streamInput) *streamSpec {
	return &streamSpec{
		users: in.users,
		cfg: engine.Config{
			Lexicon:   in.lex,
			Weighting: text.TFIDF,
			Tokenizer: text.DefaultTokenizerOptions(),
		},
		times:   in.times,
		batches: in.batches,
	}
}

// streamAccuracy scores per-batch classes against the planted ones.
func streamAccuracy(classes, truth [][]int) float64 {
	var pred, want []int
	for b := range classes {
		pred = append(pred, classes[b]...)
		want = append(want, truth[b]...)
	}
	if len(pred) != len(want) {
		return -1
	}
	return eval.Accuracy(pred, want)
}

func traceOnlineReplay(r *result, in *streamInput, s summary) error {
	v := r.values
	sp := onlineSpec(in)

	sc, lc, spans, err := streamLayers(r, sp)
	if err != nil {
		return err
	}
	v["topic.process_us_per_ktweet"] = ratio(us(s.quietWindowNs), float64(in.tweets)/1e3)

	// The shadow's and the session's labels must reproduce Topic.Process's.
	want := r.values["tweet_accuracy"]
	if got := streamAccuracy(lc.classes, in.truth); got != want {
		r.fail("shadow pipeline tweet accuracy %.12f, Topic.Process %.12f", got, want)
	}
	if got := streamAccuracy(sc.classes, in.truth); got != want {
		r.fail("engine session tweet accuracy %.12f, Topic.Process %.12f", got, want)
	}

	// The public Topic API on a topic that has taken the whole stream.
	tp, err := triclust.NewTopic(in.users, triclust.WithLexicon(in.lex))
	if err != nil {
		return err
	}
	for b, batch := range in.batches {
		if _, err := tp.Process(in.times[b], batch); err != nil {
			return err
		}
	}
	snap, err := topicAPI(v, tp)
	if err != nil {
		return err
	}
	if err := snapshotCodec(v, snap); err != nil {
		return err
	}

	// Kernels on the shapes of the median-sized batch.
	b := lc.shapeBatch
	toks := make([][]string, len(in.batches[b]))
	tok := text.NewTokenizer(sp.cfg.Tokenizer)
	for i, tw := range in.batches[b] {
		toks[i] = tok.Tokenize(tw.Text)
	}
	_, sorted := canonicalise(in.batches[b], toks)
	vocab := text.NewVocabularyFromWords(tp.Vocabulary())
	shot := tgraph.BuildSnapshot(&tgraph.Corpus{Users: in.users, Tweets: sorted},
		in.times[b], in.times[b]+1, vocab, sp.cfg.Weighting)
	v["mat.mul_ns_per_row"], v["sparse.spmm_ns_per_nnz"] = kernelTimes(shot.Graph.Xp, core.DefaultOnlineConfig().K)
	r.spans = spans
	return nil
}

// rebase shifts the parent indices of spans that are appended after
// offset other spans.
func rebase(spans []span, offset int) []span {
	out := make([]span, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			s.Parent += offset
		}
		out[i] = s
	}
	return out
}

// refitConfig is the configuration refitTopic assembles.
func refitConfig(in *refitInput) engine.Config {
	return engine.Config{
		Online:    core.OnlineConfig{Config: core.DefaultConfig()},
		Lexicon:   in.lex,
		Weighting: text.TFIDF,
		Tokenizer: text.DefaultTokenizerOptions(),
	}
}

func traceOfflineRefit(r *result, in *refitInput, s summary) error {
	v := r.values
	cfg := refitConfig(in)
	lex, hit, minDF := resolved(cfg)
	ocfg := engine.NewModel(cfg).Config()

	// The engine-level fit of one prefix: Model.FitCorpus, then the view
	// a topic publishes after it.
	var sc sessionCounts
	var m0, m1 runtime.MemStats
	fitEngine := func(tr *tracer, i int, c *tgraph.Corpus) error {
		model := engine.NewModel(cfg)
		sess := model.NewSession(nil)
		runtime.ReadMemStats(&m0)
		root := tr.begin("topic.process", i)
		id := tr.begin("engine.process", i)
		out, err := model.FitCorpus(c)
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.begin("engine.view_build", i)
		view := sess.BuildView(out.Res.Sf, nil, 0)
		tr.end(id)
		tr.end(root)
		runtime.ReadMemStats(&m1)
		runtime.KeepAlive(view)
		sc.allocs += m1.Mallocs - m0.Mallocs
		sc.allocBytes += m1.TotalAlloc - m0.TotalAlloc
		return nil
	}

	// The shadow pipeline's fit of the same prefix.
	var lc *layerCounts
	var lastGraph *tgraph.Graph
	var lastClasses []int
	fitShadow := func(tr *tracer, i int, corpus *tgraph.Corpus) error {
		root := tr.begin("shadow.batch", i)
		docs := corpus.TokenDocs()
		id := tr.begin("text.vocab_build", i)
		vocab := text.BuildVocabulary(docs, minDF)
		tr.end(id)
		id = tr.begin("lexicon.prior", i)
		sf0 := lex.Sf0(vocab, ocfg.K, hit)
		tr.end(id)
		id = tr.begin("tgraph.build", i)
		g := tgraph.Build(corpus, tgraph.BuildOptions{Weighting: cfg.Weighting, Vocab: vocab})
		tr.end(id)
		id = tr.begin("core.solve", i)
		var p core.Problem
		p.Reset(g.Xp, g.Xu, g.Xr, g.Gu, sf0)
		res, err := core.FitOffline(&p, ocfg.Config)
		tr.end(id)
		if err != nil {
			return fmt.Errorf("shadow fit %d: %w", i, err)
		}
		id = tr.begin("engine.label", i)
		labels := engine.Label(res.Sp)
		engine.Label(res.Su)
		engine.Label(res.Sf)
		tr.end(id)
		tr.end(root)
		n := len(corpus.Tweets)
		lc.tweets += n
		lc.batches++
		for _, d := range docs {
			lc.tokens += len(d)
		}
		lc.nnz += g.Xp.NNZ()
		lc.vocabSize = vocab.Len()
		lc.iters += res.Iterations
		lc.iterKtweets += float64(res.Iterations) * float64(n) / 1e3
		lc.kernelWork(&p, ocfg.K, res.Iterations)
		if i == len(in.prefixes)-1 {
			lastGraph = g
			lastClasses = make([]int, n)
			for j, l := range labels {
				lastClasses[j] = l.Class
			}
		}
		return nil
	}

	// Every prefix goes through the engine's own fit and then, at once,
	// through the shadow's, so the two are compared in the same weather.
	spans, total, err := tracedRuns(2, func(trs []*tracer) error {
		sc, lc = sessionCounts{}, &layerCounts{}
		for i, c := range in.prefixes {
			if err := fitEngine(trs[0], i, c); err != nil {
				return err
			}
			if err := fitShadow(trs[1], i, c); err != nil {
				return err
			}
		}
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m1)
		sc.heapLive = m1.HeapAlloc
		return nil
	})
	if err != nil {
		return err
	}
	layerValues(v, total, lc)
	allocValues(v, &sc, lc)
	v["topic.process_us_per_ktweet"] = ratio(us(s.quietWindowNs), float64(in.tweets)/1e3)
	checkShadow(r, total)
	if got, want := eval.Accuracy(lastClasses, in.truth[:len(lastClasses)]), r.values["tweet_accuracy"]; got != want {
		r.fail("shadow pipeline tweet accuracy %.12f, Topic.FitCorpus %.12f", got, want)
	}

	// The public Topic API on the model fitted to the whole corpus.
	tp, err := refitTopic(in)
	if err != nil {
		return err
	}
	if _, err := tp.FitCorpus(in.prefixes[len(in.prefixes)-1]); err != nil {
		return err
	}
	snap, err := topicAPI(v, tp)
	if err != nil {
		return err
	}
	if err := snapshotCodec(v, snap); err != nil {
		return err
	}
	// Kernels on the shapes of the largest refit.
	v["mat.mul_ns_per_row"], v["sparse.spmm_ns_per_nnz"] = kernelTimes(lastGraph.Xp, ocfg.K)
	r.spans = append(spans[0], rebase(spans[1], len(spans[0]))...)
	return nil
}
