package engine

import (
	"slices"
	"sync"

	"triclust/internal/conform"
	"triclust/internal/core"
	"triclust/internal/mat"
	"triclust/internal/text"
	"triclust/internal/tgraph"
)

// Session is the per-topic mutable half of the pipeline: the online solver
// (Algorithm 2) with its user history, a reusable core.Problem skeleton
// and the snapshot-construction scratch buffers. A Session serializes its
// own Process calls with an internal mutex, so it is safe to share;
// independent sessions (even of the same Model) run concurrently.
//
// In steady state a batch allocates only its escaping results: tokens are
// interned byte-slices resolved into reused per-tweet buffers, the
// snapshot graph is built into the SnapshotBuilder's arena, the lexicon
// prior is the Model's cached Sf0, the Problem value is Reset in place
// and the solver draws its temporaries from a persistent workspace.
type Session struct {
	mu    sync.Mutex
	model *Model
	users []tgraph.User

	online *core.Online
	prob   core.Problem
	sb     tgraph.SnapshotBuilder

	// Reusable per-batch buffers.
	order   []int // order[r] = caller index of canonical row r
	pos     []int // pos[callerIdx] = canonical row
	sorted  []tgraph.Tweet
	docs    [][]string
	batch   tgraph.Corpus
	in      *text.Interner
	toks    [][]string // toks[callerIdx] = tokens (caller's or session-owned)
	tokBufs [][]string // per-index reusable token buffers backing toks
	userTw  []int      // per-user tweet counts (zeroed after every batch)

	// prof is the stream-conformance profile; it accumulates and scores
	// in every mode, cmode only decides what a quarantine verdict does.
	prof  *conform.Profile
	cmode conform.Mode

	batches int
	skips   int
}

// NewSession derives a stream over a fixed user universe: tweets in later
// batches refer to users by index into users. The slice is copied.
func (m *Model) NewSession(users []tgraph.User) *Session {
	return &Session{
		model:  m,
		users:  append([]tgraph.User(nil), users...),
		online: core.NewOnline(m.cfg),
		in:     text.NewInterner(),
		prof:   conform.NewProfile(m.conformP),
	}
}

// Model returns the session's shared frozen artifacts.
func (s *Session) Model() *Model { return s.model }

// Process runs one online step (Algorithm 2) on the batch of tweets with
// timestamp t. Timestamps must strictly increase across non-empty batches;
// the first non-empty batch freezes the Model's vocabulary. An empty batch
// is a well-defined no-op: it returns a Skipped outcome without freezing
// the vocabulary, consuming the timestamp or touching user history.
//
// Within a batch the result is independent of tweet ordering: tweets are
// canonicalized (by time, user, tokens, retweet-target content) before
// the solver runs and the outcome is scattered back to the caller's
// ordering. Tweets identical under that whole key are interchangeable.
// The caller's tweets are never mutated; tweets without Tokens are
// tokenized into session-owned buffers.
func (s *Session) Process(t int, tweets []tgraph.Tweet) (*Outcome, error) {
	return s.ProcessIf(t, tweets, nil)
}

// ProcessIf is Process with a commit point: the batch is solved, and
// applied only if durable, handed the position the session holds once it
// is (non-empty batch count, random-stream position), returns nil.
// Otherwise ProcessIf returns durable's error and nothing an export, a
// view or a later batch reads has changed — a first batch's vocabulary
// freeze stays staged until then. A nil durable takes every batch; an
// empty batch calls none.
func (s *Session) ProcessIf(t int, tweets []tgraph.Tweet, durable func(batches int, randDraws uint64) error) (*Outcome, error) {
	s.mu.Lock()
	defer s.mu.Unlock()

	// Stage 0–1: validate and tokenize against the caller's ordering
	// (RetweetOf indices refer to positions in tweets).
	s.batch = tgraph.Corpus{Users: s.users, Tweets: tweets}
	if err := s.batch.Validate(); err != nil {
		return nil, err
	}
	if len(tweets) == 0 {
		s.skips++
		return skippedOutcome(), nil
	}
	s.tokenize(tweets)

	// Canonical ordering for order-independent batch semantics.
	s.canonicalize(tweets)

	// Conformance gate: score the batch against the profile of the
	// batches before it, before anything is solved — an enforce-mode
	// rejection costs no solve, and the caller can retry.
	obs := s.observation(t)
	var scored *conform.Verdict
	if verdict, ok := s.prof.Score(obs); ok {
		if verdict.Status == conform.Quarantined && s.cmode == conform.Enforce {
			return nil, &conform.BatchError{Verdict: verdict}
		}
		scored = &verdict
	}

	// Stage 2: the vocabulary. A first batch stages the freeze (and prior)
	// it causes; m.thaw keeps every other writer out until the apply.
	vocab, prior := s.model.Vocabulary(), s.model.Prior()
	staged := false
	if vocab == nil {
		s.model.thaw.Lock()
		defer s.model.thaw.Unlock()
		if vocab, prior = s.model.Vocabulary(), s.model.Prior(); vocab == nil {
			s.docs = s.docs[:0]
			for _, tw := range s.sorted {
				s.docs = append(s.docs, tw.Tokens)
			}
			vocab, prior = s.model.stageFreeze(s.docs)
			staged = true
		}
	}

	// Stage 3: snapshot graph over the batch's time window.
	lo, hi := timeBounds(tweets)
	s.batch.Tweets = s.sorted
	snap := s.sb.Build(&s.batch, lo, hi+1, vocab, s.model.weighting)

	// Stage 4–5: cached prior, problem skeleton reset in place, solve.
	s.prob.Reset(snap.Graph.Xp, snap.Graph.Xu, snap.Graph.Xr, snap.Graph.Gu, prior)
	var commit func(uint64) error
	if durable != nil {
		commit = func(draws uint64) error { return durable(s.batches+1, draws) }
	}
	res, err := s.online.StepIf(t, &s.prob, snap.Active, commit)
	if err != nil {
		return nil, err
	}

	if staged {
		s.model.applyFreeze(vocab, prior)
	}
	s.batches++
	// Fold the batch into the conformance profile (and, when it was
	// scored, the verdict counters — flag-mode semantics record even
	// quarantine verdicts of applied batches).
	s.prof.Observe(obs, scored)

	// Scatter the tweet factor back to the caller's ordering so the
	// public contract (rows follow the input) survives canonicalization.
	res.Sp = permuteRows(res.Sp, s.order)
	// Stage 6: label.
	out := newOutcome(res, snap.Active)
	out.Conform = scored
	return out, nil
}

// observation reduces the canonicalized batch (s.sorted, already
// tokenized) to the numbers the conformance invariants watch. Called
// with the session lock held, before the vocabulary can freeze on this
// batch — OOV counting starts only once earlier batches froze it.
func (s *Session) observation(t int) conform.Observation {
	o := conform.Observation{Tweets: len(s.sorted)}
	vocab := s.model.Vocabulary()
	o.OOVValid = vocab != nil
	for i := range s.sorted {
		toks := s.sorted[i].Tokens
		o.Tokens += len(toks)
		if vocab != nil {
			for _, tok := range toks {
				if vocab.ID(tok) < 0 {
					o.OOVTokens++
				}
			}
		}
	}
	if len(s.userTw) < len(s.users) {
		s.userTw = make([]int, len(s.users))
	}
	for i := range s.sorted {
		u := s.sorted[i].User
		s.userTw[u]++
		if s.userTw[u] > o.MaxUserTweets {
			o.MaxUserTweets = s.userTw[u]
		}
	}
	for i := range s.sorted {
		s.userTw[s.sorted[i].User] = 0
	}
	for i := 1; i < len(s.sorted); i++ {
		a, b := &s.sorted[i-1], &s.sorted[i]
		if a.Time == b.Time && a.User == b.User && slices.Equal(a.Tokens, b.Tokens) {
			o.Dups++
		}
	}
	if last, ok := s.online.LastTime(); ok {
		o.TimeStep, o.StepValid = t-last, true
	}
	// s.sorted is ordered by Time first, so the spread is last minus first.
	o.TimeSpread = s.sorted[len(s.sorted)-1].Time - s.sorted[0].Time
	return o
}

// SetConformMode sets what a quarantine verdict does on this session's
// ingest path (see conform.Mode). The mode is runtime-only state: it is
// not exported with the profile, and switching it never changes what the
// profile accumulates.
func (s *Session) SetConformMode(m conform.Mode) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cmode = m
}

// ConformMode returns the session's conformance mode.
func (s *Session) ConformMode() conform.Mode {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cmode
}

// tokenize fills s.toks[i] with tweet i's feature tokens: the tweet's own
// Tokens when pre-tokenized, otherwise the text run through the model's
// tokenizer into a session-owned reused buffer with interned strings.
func (s *Session) tokenize(tweets []tgraph.Tweet) {
	n := len(tweets)
	if cap(s.toks) < n {
		s.toks = make([][]string, n)
	}
	s.toks = s.toks[:n]
	for len(s.tokBufs) < n {
		s.tokBufs = append(s.tokBufs, nil)
	}
	tok := s.model.tok
	for i := range tweets {
		if tweets[i].Tokens != nil {
			s.toks[i] = tweets[i].Tokens
			continue
		}
		buf := tok.AppendTokens(s.tokBufs[i][:0], tweets[i].Text, s.in)
		s.tokBufs[i] = buf
		s.toks[i] = buf
	}
}

// canonicalize fills s.order with a permutation of [0,n) sorted by
// (Time, User, Tokens) and s.sorted with the correspondingly reordered
// tweets, remapping batch-local RetweetOf indices through the permutation.
func (s *Session) canonicalize(tweets []tgraph.Tweet) {
	n := len(tweets)
	s.order = s.order[:0]
	for i := 0; i < n; i++ {
		s.order = append(s.order, i)
	}
	slices.SortStableFunc(s.order, func(ai, bi int) int {
		if c := s.compareTweet(tweets, ai, bi); c != 0 {
			return c
		}
		// Tie-break by retweet-target *content* (not its batch-local index,
		// which depends on the input ordering): tweets that agree on
		// (Time, User, Tokens) but retweet different targets carry different
		// Xr edges and must not be treated as interchangeable.
		at, bt := tweets[ai].RetweetOf, tweets[bi].RetweetOf
		aHas, bHas := at >= 0 && at < n, bt >= 0 && bt < n
		switch {
		case aHas && bHas:
			return s.compareTweet(tweets, at, bt)
		case bHas:
			return -1 // plain tweets sort before retweets
		case aHas:
			return 1
		}
		return 0
	})
	s.pos = s.pos[:0]
	for range tweets {
		s.pos = append(s.pos, 0)
	}
	for r, ci := range s.order {
		s.pos[ci] = r
	}
	s.sorted = s.sorted[:0]
	for _, ci := range s.order {
		tw := tweets[ci]
		tw.Tokens = s.toks[ci]
		if tw.RetweetOf >= 0 && tw.RetweetOf < n {
			tw.RetweetOf = s.pos[tw.RetweetOf]
		}
		s.sorted = append(s.sorted, tw)
	}
}

// compareTweet orders tweets by (Time, User, Tokens), the content-derived
// part of the canonical key. Tokens come from s.toks, so untokenized
// callers sort by the same features the graph will see.
func (s *Session) compareTweet(tweets []tgraph.Tweet, a, b int) int {
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
	return slices.Compare(s.toks[a], s.toks[b])
}

// permuteRows returns a matrix whose row callerIdx[r] is src's row r.
func permuteRows(src *mat.Dense, callerIdx []int) *mat.Dense {
	out := mat.NewDense(src.Rows(), src.Cols())
	for r := 0; r < src.Rows(); r++ {
		copy(out.Row(callerIdx[r]), src.Row(r))
	}
	return out
}

func timeBounds(tweets []tgraph.Tweet) (lo, hi int) {
	lo, hi = tweets[0].Time, tweets[0].Time
	for _, tw := range tweets[1:] {
		if tw.Time < lo {
			lo = tw.Time
		}
		if tw.Time > hi {
			hi = tw.Time
		}
	}
	return lo, hi
}
