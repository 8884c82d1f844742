package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"

	"triclust/internal/conform"
	"triclust/internal/core"
	"triclust/internal/engine"
	"triclust/internal/lexicon"
	"triclust/internal/mat"
	"triclust/internal/par"
	"triclust/internal/sparse"
	"triclust/internal/text"
	"triclust/internal/tgraph"
)

// The traced run's shadow pipeline: the same batches a workload feeds
// Topic.Process, fed instead through the layers' exported functions in
// the order engine.Session.Process calls them, with a span around each
// call. It must label every tweet exactly as Topic.Process does; the run
// fails if its accuracies differ. What Session.Process does itself —
// validate, canonicalise, scatter, label — is what is left of its time
// once the layers' spans are taken out.

// streamSpec is one topic's stream, as the shadow and the engine-level
// pass consume it.
type streamSpec struct {
	users []tgraph.User
	cfg   engine.Config
	// vocabDocs, when set, freeze the vocabulary before the first batch
	// (the daemon workloads warm it in set-up); otherwise the first batch
	// freezes it.
	vocabDocs [][]string
	times     []int
	batches   [][]tgraph.Tweet
	// from is the first measured batch; earlier ones are the un-timed
	// warm-up and run without spans.
	from int
}

// layerCounts are the counts taken at the same boundaries as the spans.
type layerCounts struct {
	tweets, batches int
	tokens, nnz     int
	vocabSize       int
	iters           int
	iterKtweets     float64 // Σ sweeps × thousand tweets
	splitWork       float64 // kernel work on the parallel path
	allWork         float64
	// classes[b][i] is the label of tweet i of measured batch b, in the
	// caller's order.
	classes [][]int
	// shape of the median-sized (online) or largest (offline) solve.
	shapeBatch int
}

// resolved fills the defaults engine.NewModel would.
func resolved(cfg engine.Config) (lex *lexicon.Lexicon, hit float64, minDF int) {
	lex, hit, minDF = cfg.Lexicon, cfg.LexiconHit, cfg.MinDF
	if lex == nil {
		lex = lexicon.Builtin()
	}
	if hit == 0 {
		hit = 0.8
	}
	if minDF == 0 {
		minDF = 2
	}
	return lex, hit, minDF
}

// kernelWork adds one sweep's representative kernel launches over the
// problem's shapes to the split/all work sums: a launch is split across
// workers only when rows × cost-per-row reaches par.MinParallelWork.
func (lc *layerCounts) kernelWork(p *core.Problem, k, sweeps int) {
	launch := func(rows, costPerRow int) {
		w := float64(rows*costPerRow) * float64(sweeps)
		lc.allWork += w
		if par.Procs() > 1 && rows*costPerRow >= par.MinParallelWork {
			lc.splitWork += w
		}
	}
	spmm := func(m *sparse.CSR) {
		if m == nil || m.Rows() == 0 || m.Cols() == 0 {
			return
		}
		// m·S and mᵀ·S, as sparse.CSR.MulDenseInto costs them.
		launch(m.Rows(), (m.NNZ()/m.Rows()+1)*k)
		launch(m.Cols(), (m.NNZ()/m.Cols()+1)*k)
	}
	spmm(p.Xp)
	spmm(p.Xu)
	spmm(p.Xr)
	// The dense S·(k×k) products over tweets, users and features.
	launch(p.Xp.Rows(), k*k)
	launch(p.Xu.Rows(), k*k)
	launch(p.Xp.Cols(), k*k)
}

// shadowRun is one pass of the shadow pipeline over a stream, advanced
// one batch at a time so that the engine's own pass can take the same
// batch a few milliseconds earlier (see streamLayers).
type shadowRun struct {
	tr      *tracer
	sp      *streamSpec
	ocfg    core.OnlineConfig
	lex     *lexicon.Lexicon
	hit     float64
	minDF   int
	tok     *text.Tokenizer
	in      *text.Interner
	prof    *conform.Profile
	online  *core.Online
	sb      tgraph.SnapshotBuilder
	prob    core.Problem
	vocab   *text.Vocabulary
	sf0     *mat.Dense
	tokBufs [][]string
	userTw  []int
	sizes   []int
	lc      *layerCounts
}

func newShadowRun(tr *tracer, sp *streamSpec) *shadowRun {
	s := &shadowRun{
		tr:     tr,
		sp:     sp,
		ocfg:   engine.NewModel(sp.cfg).Config(), // the resolved solver config
		tok:    text.NewTokenizer(sp.cfg.Tokenizer),
		in:     text.NewInterner(),
		prof:   conform.NewProfile(sp.cfg.Conform),
		userTw: make([]int, len(sp.users)),
		lc:     &layerCounts{},
	}
	s.lex, s.hit, s.minDF = resolved(sp.cfg)
	s.online = core.NewOnline(s.ocfg)
	if sp.vocabDocs != nil {
		s.vocab = text.BuildVocabulary(sp.vocabDocs, s.minDF)
		s.sf0 = s.lex.Sf0(s.vocab, s.ocfg.K, s.hit)
	}
	return s
}

// step runs batch b of the stream through the layers.
func (s *shadowRun) step(b int) error {
	sp, lc := s.sp, s.lc
	tweets := sp.batches[b]
	traced := b >= sp.from
	t := s.tr
	if !traced {
		t = nil
	}
	span := func(name string) func() { return t.span(name, b-sp.from) }
	endBatch := span("shadow.batch")

	// Stage 1: tokenize tweets that carry text only.
	toks := make([][]string, len(tweets))
	raw := false
	for i := range tweets {
		if tweets[i].Tokens == nil {
			raw = true
		}
	}
	for len(s.tokBufs) < len(tweets) {
		s.tokBufs = append(s.tokBufs, nil)
	}
	var endTok func()
	if raw {
		endTok = span("text.tokenize")
	}
	for i := range tweets {
		if tweets[i].Tokens != nil {
			toks[i] = tweets[i].Tokens
			continue
		}
		s.tokBufs[i] = s.tok.AppendTokens(s.tokBufs[i][:0], tweets[i].Text, s.in)
		toks[i] = s.tokBufs[i]
	}
	if raw {
		endTok()
	}

	// Canonical order, as Session.Process establishes it.
	order, sorted := canonicalise(tweets, toks)

	// Conformance: observe the batch, score it against the profile.
	obs := observe(sorted, s.vocab, s.userTw, sp.times[b], s.online)
	endScore := span("conform.score")
	verdict, scored := s.prof.Score(obs)
	endScore()

	// Stage 2 + 4: the first batch freezes vocabulary and prior.
	if s.vocab == nil {
		docs := make([][]string, len(sorted))
		for i := range sorted {
			docs[i] = sorted[i].Tokens
		}
		endVocab := span("text.vocab_build")
		s.vocab = text.BuildVocabulary(docs, s.minDF)
		endVocab()
		endPrior := span("lexicon.prior")
		s.sf0 = s.lex.Sf0(s.vocab, s.ocfg.K, s.hit)
		endPrior()
	}

	// Stage 3: the snapshot graph.
	lo, hi := sorted[0].Time, sorted[len(sorted)-1].Time
	corpus := tgraph.Corpus{Users: sp.users, Tweets: sorted}
	endGraph := span("tgraph.build")
	snap := s.sb.Build(&corpus, lo, hi+1, s.vocab, sp.cfg.Weighting)
	endGraph()

	// Stage 5: solve.
	endSolve := span("core.solve")
	s.prob.Reset(snap.Graph.Xp, snap.Graph.Xu, snap.Graph.Xr, snap.Graph.Gu, s.sf0)
	res, err := s.online.Step(sp.times[b], &s.prob, snap.Active)
	endSolve()
	if err != nil {
		return fmt.Errorf("shadow batch %d: %w", b, err)
	}

	endObserve := span("conform.observe")
	if scored {
		s.prof.Observe(obs, &verdict)
	} else {
		s.prof.Observe(obs, nil)
	}
	endObserve()

	// Stage 6: label, scattered back to the caller's order.
	endLabel := span("engine.label")
	labels := engine.Label(res.Sp)
	engine.Label(res.Su)
	engine.Label(res.Sf)
	endLabel()
	if traced {
		classes := make([]int, len(tweets))
		for r, l := range labels {
			classes[order[r]] = l.Class
		}
		lc.classes = append(lc.classes, classes)
		lc.tweets += len(tweets)
		lc.batches++
		for _, t := range toks {
			lc.tokens += len(t)
		}
		lc.nnz += snap.Graph.Xp.NNZ()
		lc.iters += res.Iterations
		lc.iterKtweets += float64(res.Iterations) * float64(len(tweets)) / 1e3
		lc.kernelWork(&s.prob, s.ocfg.K, res.Iterations)
		s.sizes = append(s.sizes, len(tweets))
	}
	endBatch()
	return nil
}

// counts closes the pass and returns what it counted.
func (s *shadowRun) counts() *layerCounts {
	s.lc.vocabSize = s.vocab.Len()
	s.lc.shapeBatch = s.sp.from + medianIndex(s.sizes)
	return s.lc
}

// medianIndex is the index of the median-sized entry of sizes.
func medianIndex(sizes []int) int {
	idx := make([]int, len(sizes))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return sizes[idx[a]] < sizes[idx[b]] })
	if len(idx) == 0 {
		return 0
	}
	return idx[(len(idx)-1)/2]
}

// canonicalise orders a batch by (time, user, tokens, retweet-target
// content), the order-independent batch semantics of Session.Process,
// and remaps batch-local retweet targets through the permutation.
// order[r] is the caller's index of canonical row r.
func canonicalise(tweets []tgraph.Tweet, toks [][]string) (order []int, sorted []tgraph.Tweet) {
	n := len(tweets)
	cmp := func(a, b int) int {
		ta, tb := &tweets[a], &tweets[b]
		if ta.Time != tb.Time {
			if ta.Time < tb.Time {
				return -1
			}
			return 1
		}
		if ta.User != tb.User {
			if ta.User < tb.User {
				return -1
			}
			return 1
		}
		return slices.Compare(toks[a], toks[b])
	}
	order = make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool {
		a, b := order[x], order[y]
		if c := cmp(a, b); c != 0 {
			return c < 0
		}
		at, bt := tweets[a].RetweetOf, tweets[b].RetweetOf
		aHas, bHas := at >= 0 && at < n, bt >= 0 && bt < n
		if aHas != bHas {
			return !aHas
		}
		if aHas {
			return cmp(at, bt) < 0
		}
		return false
	})
	pos := make([]int, n)
	for r, ci := range order {
		pos[ci] = r
	}
	sorted = make([]tgraph.Tweet, n)
	for r, ci := range order {
		tw := tweets[ci]
		tw.Tokens = toks[ci]
		if tw.RetweetOf >= 0 && tw.RetweetOf < n {
			tw.RetweetOf = pos[tw.RetweetOf]
		}
		sorted[r] = tw
	}
	return order, sorted
}

// observe reduces a canonicalised batch to the numbers the conformance
// invariants watch, as Session.Process does before scoring.
func observe(sorted []tgraph.Tweet, vocab *text.Vocabulary, userTw []int, t int, online *core.Online) conform.Observation {
	o := conform.Observation{Tweets: len(sorted), OOVValid: vocab != nil}
	for i := range sorted {
		o.Tokens += len(sorted[i].Tokens)
		if vocab != nil {
			for _, tok := range sorted[i].Tokens {
				if vocab.ID(tok) < 0 {
					o.OOVTokens++
				}
			}
		}
		u := sorted[i].User
		userTw[u]++
		if userTw[u] > o.MaxUserTweets {
			o.MaxUserTweets = userTw[u]
		}
	}
	for i := range sorted {
		userTw[sorted[i].User] = 0
	}
	for i := 1; i < len(sorted); i++ {
		a, b := &sorted[i-1], &sorted[i]
		if a.Time == b.Time && a.User == b.User && slices.Equal(a.Tokens, b.Tokens) {
			o.Dups++
		}
	}
	if last, ok := online.LastTime(); ok {
		o.TimeStep, o.StepValid = t-last, true
	}
	o.TimeSpread = sorted[len(sorted)-1].Time - sorted[0].Time
	return o
}

// sessionCounts is what the engine-level pass measured beside its spans.
type sessionCounts struct {
	allocs, allocBytes uint64
	heapLive           uint64
	classes            [][]int
}

// sessionRun is one pass of sp through a real engine.Session —
// Session.Process then Session.BuildView, the two calls Topic.Process
// makes — with a span around each and the allocator's counters read
// around every batch. It advances one batch at a time, like shadowRun.
type sessionRun struct {
	tr     *tracer
	sp     *streamSpec
	sess   *engine.Session
	view   *engine.View
	sc     *sessionCounts
	m0, m1 runtime.MemStats
}

func newSessionRun(tr *tracer, sp *streamSpec) (*sessionRun, error) {
	model := engine.NewModel(sp.cfg)
	if sp.vocabDocs != nil {
		if err := model.AccumulateVocabulary(sp.vocabDocs); err != nil {
			return nil, err
		}
		if err := model.FreezeNow(); err != nil {
			return nil, err
		}
	}
	sess := model.NewSession(sp.users)
	return &sessionRun{
		tr: tr, sp: sp, sess: sess,
		view: sess.BuildView(nil, nil, 0),
		sc:   &sessionCounts{},
	}, nil
}

// step runs batch b of the stream through the session.
func (s *sessionRun) step(b int) error {
	sp, tr, sc := s.sp, s.tr, s.sc
	tweets := sp.batches[b]
	traced := b >= sp.from
	var root, id int
	if traced {
		runtime.ReadMemStats(&s.m0)
		root = tr.begin("topic.process", b-sp.from)
		id = tr.begin("engine.process", b-sp.from)
	}
	out, err := s.sess.Process(sp.times[b], tweets)
	if traced {
		tr.end(id)
	}
	if err != nil {
		return fmt.Errorf("session batch %d: %w", b, err)
	}
	if traced {
		id = tr.begin("engine.view_build", b-sp.from)
	}
	s.view = s.sess.BuildView(out.Res.Sf, s.view, 0)
	if traced {
		tr.end(id)
		tr.end(root)
		runtime.ReadMemStats(&s.m1)
		sc.allocs += s.m1.Mallocs - s.m0.Mallocs
		sc.allocBytes += s.m1.TotalAlloc - s.m0.TotalAlloc
		classes := make([]int, len(out.TweetSentiments))
		for i, l := range out.TweetSentiments {
			classes[i] = l.Class
		}
		sc.classes = append(sc.classes, classes)
	}
	return nil
}

// counts closes the pass: the heap the session keeps alive is read after
// two collections, so the caller drops what else the pass made first.
func (s *sessionRun) counts() *sessionCounts {
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&s.m1)
	s.sc.heapLive = s.m1.HeapAlloc
	runtime.KeepAlive(s.view)
	return s.sc
}

// kernelRepeats is how many times a kernel micro-measurement runs; the
// quietest repeat is reported.
const kernelRepeats = 31

// kernelTimes measures the two kernels the solver's sweeps are made of,
// on the shapes of one solve: the dense (n×k)·(k×k) product per row and
// the sparse Xp·Sf product per stored entry.
func kernelTimes(xp *sparse.CSR, k int) (mulNsPerRow, spmmNsPerNNZ float64) {
	rng := rand.New(rand.NewSource(1))
	n, l := xp.Rows(), xp.Cols()
	if n == 0 || l == 0 || xp.NNZ() == 0 {
		return 0, 0
	}
	a := mat.RandomNonNegative(rng, n, k, 0.1, 1)
	h := mat.RandomNonNegative(rng, k, k, 0.1, 1)
	dst := mat.NewDense(n, k)
	mul := quietTime(kernelRepeats, func() { dst.Mul(a, h) })
	sf := mat.RandomNonNegative(rng, l, k, 0.1, 1)
	spmm := quietTime(kernelRepeats, func() { xp.MulDenseInto(dst, sf) })
	return float64(mul) / float64(n), float64(spmm) / float64(xp.NNZ())
}
