package triclust

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"triclust/internal/codec"
	"triclust/internal/conform"
	"triclust/internal/core"
	"triclust/internal/engine"
	"triclust/internal/mat"
	"triclust/internal/text"
)

// Feature weighting schemes, re-exported for option construction.
type Weighting = text.Weighting

const (
	// TF uses raw term counts.
	TF = text.TF
	// TFIDF uses smoothed tf·idf weighting (the paper's §5.1 choice).
	TFIDF = text.TFIDF
	// Binary uses 0/1 presence indicators.
	Binary = text.Binary
)

// TokenizerOptions control tweet normalization (re-exported from the text
// pipeline).
type TokenizerOptions = text.TokenizerOptions

// DefaultTokenizerOptions matches the paper's preprocessing: hashtags are
// first-class features, mentions dropped, stopwords removed.
func DefaultTokenizerOptions() TokenizerOptions {
	return text.DefaultTokenizerOptions()
}

// topicSettings is the option-assembly state behind NewTopic.
type topicSettings struct {
	cfg engine.Config
}

// Option configures a Topic at construction. Options are applied in
// order; the assembled configuration is validated once, after all options
// ran, so a later option may fix an earlier one.
type Option func(*topicSettings) error

// WithSolverConfig sets the full solver configuration (offline
// hyper-parameters plus the temporal ones). Zero-valued fields keep the
// paper's defaults. Offline-only callers can wrap a plain Config:
// WithSolverConfig(OnlineConfig{Config: cfg}).
func WithSolverConfig(cfg OnlineConfig) Option {
	return func(s *topicSettings) error {
		s.cfg.Online = cfg
		return nil
	}
}

// WithLexicon seeds the feature prior Sf0 from lex; nil selects the
// built-in polarity lexicon.
func WithLexicon(lex *Lexicon) Option {
	return func(s *topicSettings) error {
		s.cfg.Lexicon = lex
		return nil
	}
}

// WithLexiconHit sets the prior probability mass a listed word puts on
// its class (default 0.8; must lie in [1/k, 1]).
func WithLexiconHit(hit float64) Option {
	return func(s *topicSettings) error {
		s.cfg.LexiconHit = hit
		return nil
	}
}

// WithWeighting selects TF, TFIDF or Binary features (default TF-IDF).
func WithWeighting(w Weighting) Option {
	return func(s *topicSettings) error {
		s.cfg.Weighting = w
		return nil
	}
}

// WithMinDF prunes vocabulary words occurring in fewer documents than
// minDF when the vocabulary freezes (default 2).
func WithMinDF(minDF int) Option {
	return func(s *topicSettings) error {
		s.cfg.MinDF = minDF
		return nil
	}
}

// WithTokenizer sets the text-normalization options used for tweets
// whose Tokens field is nil.
func WithTokenizer(opts TokenizerOptions) Option {
	return func(s *topicSettings) error {
		s.cfg.Tokenizer = opts
		return nil
	}
}

// WithConformance tunes the stream-conformance profile every topic
// accumulates: when scoring starts (MinSamples) and where the flag and
// quarantine thresholds sit. Zero-valued fields keep the defaults. The
// thresholds are part of the topic's durable state (they travel inside
// snapshots); what a verdict does is the runtime conformance mode, set
// separately with SetConformanceMode.
func WithConformance(p ConformanceParams) Option {
	return func(s *topicSettings) error {
		s.cfg.Conform = p
		return nil
	}
}

// Stream-conformance types, re-exported from the conformance subsystem.
type (
	// ConformanceParams tune the conformance profile (see WithConformance).
	ConformanceParams = conform.Params
	// ConformanceMode selects what a quarantine verdict does on ingest.
	ConformanceMode = conform.Mode
	// ConformanceVerdict is the structured result of scoring one batch:
	// a status, per-invariant z-scores and the violated invariants.
	ConformanceVerdict = conform.Verdict
	// ConformanceScore is one invariant's z-score within a verdict.
	ConformanceScore = conform.Score
	// ConformanceStatus classifies a scored batch.
	ConformanceStatus = conform.Status
	// ConformanceReport summarizes a topic's learned stream profile.
	ConformanceReport = conform.Report
	// ConformanceError is the typed rejection of a nonconforming batch in
	// enforce mode. The batch was not applied: no state advanced, no
	// timestamp was consumed, and the profile is exactly as before.
	ConformanceError = conform.BatchError
)

// Conformance modes (see ConformanceMode).
const (
	// ConformOff scores and accumulates but surfaces nothing.
	ConformOff = conform.Off
	// ConformFlag annotates accepted batches with their verdict.
	ConformFlag = conform.Flag
	// ConformEnforce rejects quarantined batches before they are applied.
	ConformEnforce = conform.Enforce
)

// Conformance statuses (see ConformanceStatus).
const (
	Conforming  = conform.Conforming
	Flagged     = conform.Flagged
	Quarantined = conform.Quarantined
)

// ParseConformanceMode parses "off" (or ""), "flag" or "enforce".
func ParseConformanceMode(s string) (ConformanceMode, error) {
	return conform.ParseMode(s)
}

// defaultTopicSettings makes NewTopic default to the paper's TF-IDF
// weighting and tokenizer setup (the zero Weighting value is TF, which
// remains selectable explicitly via WithWeighting(TF); likewise a plain
// tokenizer via WithTokenizer(TokenizerOptions{})).
func defaultTopicSettings() topicSettings {
	return topicSettings{cfg: engine.Config{
		Weighting: text.TFIDF,
		Tokenizer: text.DefaultTokenizerOptions(),
	}}
}

// Topic is the first-class handle to one topic's sentiment analysis: a
// durable, versioned value unifying the offline and online algorithms.
//
// Lifecycle:
//
//	t, err := triclust.NewTopic(users, triclust.WithMinDF(1), ...)
//	t.WarmupVocabulary(texts...)   // optional: seed the vocabulary
//	t.Freeze()                     // optional: fix it before any batch
//	out, err := t.Process(day, batch)   // online steps (Algorithm 2), or
//	res, err := t.FitCorpus(corpus)     // a one-shot offline fit (Algorithm 1)
//	preds, err := t.Predict(texts)      // fold-in against the last factors
//
// The vocabulary freezes exactly once — explicitly via Freeze, or
// implicitly at the first processed batch / offline fit — because the
// online algorithm requires comparable Sf(t) matrices across snapshots.
//
// Topic.Snapshot serializes the complete state (vocabulary, prior, solver
// history, user history, random-stream position, configuration) into a
// versioned binary snapshot; Restore rebuilds a topic that continues the
// stream bit-identically, at any kernel parallelism width.
//
// A Topic is safe for concurrent use, by one rule: writers (Process,
// FitCorpus, Freeze, SetEpoch, Snapshot's export) take Topic.mu; nothing
// that reports a result or a counter takes any lock. Every such number —
// estimates, counters, the stream position, the epoch, the vocabulary's
// size — is a field of the one immutable view the last writer published,
// so it never waits on a solve and all of them agree with each other.
type Topic struct {
	mu    sync.Mutex // serializes the writers; every publish happens under it
	model *engine.Model
	sess  *engine.Session
	// view is the RCU read plane: republished with a single pointer swap
	// by every writer that changes what it reports (a committed batch, an
	// offline fit, a freeze, an epoch change, a restore). Never nil after
	// NewTopic.
	view atomic.Pointer[engine.View]
}

// NewTopic creates a topic over a fixed user universe (tweets in later
// batches refer to users by index into users; pass nil for offline-only
// use). The assembled configuration is validated: a negative MinDF, a
// class count the lexicon prior cannot seed (k ∉ {2, 3}), a non-positive
// temporal window, a decay outside (0,1] or an out-of-range lexicon hit
// mass are rejected with descriptive errors.
func NewTopic(users []User, opts ...Option) (*Topic, error) {
	s := defaultTopicSettings()
	for _, opt := range opts {
		if opt == nil {
			return nil, errors.New("triclust: nil Option")
		}
		if err := opt(&s); err != nil {
			return nil, err
		}
	}
	if err := s.cfg.Validate(); err != nil {
		return nil, fmt.Errorf("triclust: invalid topic configuration: %w", err)
	}
	m := engine.NewModel(s.cfg)
	t := &Topic{model: m, sess: m.NewSession(users)}
	t.publish(nil, 0)
	return t, nil
}

// publish materializes and atomically publishes a fresh read view over
// the session's current state, carrying f (the most recent solve's Sf, Hp
// and Hu; nil before the first) at ownership epoch epoch. Called under
// t.mu, or before the topic escapes its constructor, so views are
// published in commit order and each pairs the solver history with the
// factors of the same batch.
func (t *Topic) publish(f *core.Factors, epoch uint64) {
	var sf *mat.Dense
	if f != nil {
		sf = f.Sf
	}
	v := t.sess.BuildView(sf, t.view.Load(), epoch)
	v.Factors = f
	t.view.Store(v)
}

// commit publishes the view of a finished solve. Sp and Su describe one
// batch's tweets and users and nothing later reads them, so the view keeps
// only the three factors fold-in and a snapshot need.
func (t *Topic) commit(res *core.Result) {
	t.publish(&core.Factors{Sf: res.Sf, Hp: res.Hp, Hu: res.Hu}, t.view.Load().Epoch)
}

// Users returns the size of the topic's user universe.
func (t *Topic) Users() int { return t.view.Load().NumUsers }

// Batches returns the number of non-empty batches processed.
func (t *Topic) Batches() int { return t.view.Load().Batches }

// SkippedBatches returns the number of empty batches skipped.
func (t *Topic) SkippedBatches() int { return t.view.Load().Skips }

// KnownUsers returns the number of users with recorded history.
func (t *Topic) KnownUsers() int { return t.view.Load().KnownUsers }

// LastTime returns the timestamp of the most recent non-empty batch, or
// ok = false before the first one.
func (t *Topic) LastTime() (int, bool) {
	v := t.view.Load()
	return v.LastTime, v.HasTime
}

// Vocabulary returns a copy of the frozen vocabulary in feature-index
// order, or nil before the freeze.
func (t *Topic) Vocabulary() []string {
	if v := t.model.Vocabulary(); v != nil {
		return v.Words()
	}
	return nil
}

// VocabSize returns the frozen vocabulary's size without copying it
// (0 before the freeze).
func (t *Topic) VocabSize() int { return t.view.Load().VocabSize }

// Frozen reports whether the vocabulary is fixed.
func (t *Topic) Frozen() bool { return t.view.Load().Frozen }

// FeatureSentiments returns the labeled per-word sentiment rows of the
// most recent solve (nil before the first one). Rows follow the
// vocabulary's feature-index order. The slice is shared with the view:
// treat it as read-only.
func (t *Topic) FeatureSentiments() []Sentiment {
	return t.view.Load().Features
}

// WarmupVocabulary folds raw texts into the pre-freeze document-frequency
// counts, so the vocabulary can be seeded from historical or out-of-band
// data before the first batch fixes it. It errors once the vocabulary is
// frozen.
func (t *Topic) WarmupVocabulary(texts ...string) error {
	docs := make([][]string, len(texts))
	for i, s := range texts {
		docs[i] = t.model.Tokenizer().Tokenize(s)
	}
	return t.model.AccumulateVocabulary(docs)
}

// WarmupTokenized is WarmupVocabulary for pre-tokenized documents.
func (t *Topic) WarmupTokenized(docs [][]string) error {
	return t.model.AccumulateVocabulary(docs)
}

// Freeze fixes the vocabulary from the warm-up documents accumulated so
// far, without waiting for the first batch. It errors if the vocabulary
// is already frozen or the warm-up counts yield no words at MinDF.
func (t *Topic) Freeze() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.model.FreezeNow(); err != nil {
		return err
	}
	// The view reports Frozen and VocabSize: republish so no reader has to
	// wait for the first batch to see the freeze.
	v := t.view.Load()
	t.publish(v.Factors, v.Epoch)
	return nil
}

// Process runs one online step (Algorithm 2) on the batch of tweets with
// timestamp ts. Timestamps must strictly increase across non-empty
// batches. The first non-empty batch freezes the vocabulary unless Freeze
// already did; an empty batch returns a result with Skipped set and
// changes nothing.
func (t *Topic) Process(ts int, tweets []Tweet) (*StreamResult, error) {
	// t.mu is held across the solve (not just the publish) so a concurrent
	// Snapshot can never pair batch-N solver history with the batch-N−1
	// view; lock order is always Topic.mu → Session.mu.
	t.mu.Lock()
	defer t.mu.Unlock()
	out, err := t.sess.Process(ts, tweets)
	if err != nil {
		return nil, err
	}
	if out.Skipped {
		// Nothing solved, nothing to re-materialize: carry the view over
		// with only the skip counter bumped.
		t.view.Store(t.view.Load().WithSkip())
	} else {
		t.commit(out.Res)
	}
	return &StreamResult{
		Result:      *resultFrom(out, t.model),
		ActiveUsers: out.Active,
		Skipped:     out.Skipped,
		Conformance: out.Conform,
	}, nil
}

// SetConformanceMode sets what a quarantine verdict does on this topic's
// ingest path: ConformOff (default) and ConformFlag accept every batch —
// flag mode additionally reports the verdict in StreamResult.Conformance —
// while ConformEnforce rejects quarantined batches with a
// *ConformanceError before any state advances. The mode is runtime-only:
// the profile accumulates and scores identically in every mode, so
// topics that differ only in mode produce byte-identical snapshots on a
// conforming stream, and switching modes never forks the stream.
func (t *Topic) SetConformanceMode(m ConformanceMode) {
	t.sess.SetConformMode(m)
}

// ConformanceMode returns the topic's conformance mode.
func (t *Topic) ConformanceMode() ConformanceMode {
	return t.sess.ConformMode()
}

// ConformanceReport summarizes the topic's learned stream profile —
// per-invariant distributions, verdict counters and the drift trend — as
// of the most recently committed batch. Treat the report as read-only.
func (t *Topic) ConformanceReport() *ConformanceReport {
	return t.view.Load().Conform
}

// FitCorpus runs the offline tri-clustering algorithm (Algorithm 1) over
// a whole corpus in one shot, freezing the vocabulary from it when not
// already frozen. Offline and online use share the topic's vocabulary and
// prior, so a topic fitted offline can be warm-started for prediction.
func (t *Topic) FitCorpus(c *Corpus) (*Result, error) {
	if c == nil {
		return nil, errors.New("triclust: nil corpus")
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out, err := t.model.FitCorpus(c)
	if err != nil {
		return nil, err
	}
	t.commit(out.Res)
	return resultFrom(out, t.model), nil
}

// Predict classifies new tweets against the most recent solve (offline
// fit or online step) by NMF fold-in, without running the solver.
// Out-of-vocabulary words are ignored.
func (t *Topic) Predict(texts []string) ([]Sentiment, error) {
	docs := make([][]string, len(texts))
	for i, s := range texts {
		docs[i] = t.model.Tokenizer().Tokenize(s)
	}
	return t.PredictTokenized(docs)
}

// PredictTokenized is Predict for pre-tokenized input.
func (t *Topic) PredictTokenized(docs [][]string) ([]Sentiment, error) {
	f := t.view.Load().Factors
	if f == nil {
		return nil, errors.New("triclust: topic has no fitted factors yet (run Process or FitCorpus first)")
	}
	return t.model.Predict(f, docs)
}

// UserEstimate returns the most recent sentiment estimate for a user, or
// ok = false if the user has never appeared: the estimate of the most
// recently committed batch — exactly what a quiesced topic at the same
// batch counter would return.
func (t *Topic) UserEstimate(user int) (Sentiment, bool) {
	return t.view.Load().UserEstimate(user)
}

// Epoch returns the topic's ownership epoch. Epochs fence topic hand-offs
// in sharded deployments: a topic is created at epoch 0, every move to
// another shard increments the epoch, and the value rides inside the
// snapshot so a shard that gave a topic up can reject stale (pre-move)
// snapshots. The epoch never influences processing — two topics that
// differ only in epoch produce identical results and, epoch section
// aside, identical snapshots.
func (t *Topic) Epoch() uint64 { return t.view.Load().Epoch }

// SetEpoch sets the topic's ownership epoch (see Epoch). It is called by
// sharding layers at hand-off time, immediately before exporting the
// snapshot installed on the receiving shard.
func (t *Topic) SetEpoch(e uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.view.Store(t.view.Load().WithEpoch(e))
}

// StreamPos returns the topic's replay fingerprint: the non-empty batch
// count and the solver's position in its replayable random stream. Two
// topics that processed the same batches report the same position, so a
// batch journal records it to verify that crash-recovery replay
// reproduced the original run exactly.
func (t *Topic) StreamPos() (batches int, randDraws uint64) {
	v := t.view.Load()
	return v.Batches, v.RandDraws
}

// Snapshot serializes the topic's complete state — configuration,
// lexicon, vocabulary, Sf0 prior, feature factors and history, user
// history and random-stream position — as a self-describing, versioned
// binary snapshot. A topic restored from it continues the stream
// bit-identically, at any kernel parallelism width. Equal states
// produce byte-identical snapshots, and the size does not depend on how
// many tweets the last batch held: the per-tweet and per-user factors of
// a solve are results, not state.
func (t *Topic) Snapshot(w io.Writer) error {
	st := func() *engine.State {
		t.mu.Lock()
		defer t.mu.Unlock()
		// Every publish happens under t.mu, so the view read here is the
		// one the exported solver state belongs to.
		st := t.sess.ExportState()
		v := t.view.Load()
		st.LastFactors, st.Epoch = v.Factors, v.Epoch
		return st
	}()
	// Encoding and writing happen outside the lock so a slow writer — e.g.
	// a stalled snapshot download — cannot block Process or FitCorpus. This
	// is safe: st is a deep copy, and a view's factors are replaced, never
	// mutated, once a solve publishes them.
	return codec.Encode(w, st)
}

// ConvergenceState classifies how settled a read view's estimates are:
// "warming" (vocabulary not frozen or the temporal window not yet full),
// "converging" (estimates still moving by more than the steady
// threshold between batches) or "steady".
type ConvergenceState = engine.ViewState

// Convergence states, re-exported from the engine.
const (
	Warming    = engine.ViewWarming
	Converging = engine.ViewConverging
	Steady     = engine.ViewSteady
)

// Convergence is a read view's progress indicator: an answer served
// mid-stream comes with how many batches produced it and how much the
// last batch moved it, so clients can use an immediate estimate without
// mistaking a warm-up answer for a settled one.
type Convergence struct {
	// State is the classification (see ConvergenceState).
	State ConvergenceState
	// Batches is the number of non-empty batches behind the estimates.
	Batches int
	// Delta is the mean absolute per-entry movement of the user estimates
	// versus the previous view (1 when there was nothing to compare).
	Delta float64
}

// ReadView is the immutable view Topic's own accessors load one field of
// at a time, held still: two reads through the same ReadView are
// guaranteed mutually consistent, whatever commits in between. The zero
// ReadView is invalid; obtain one from Topic.ReadView.
type ReadView struct {
	v *engine.View
}

// ReadView returns the topic's current read view: a single atomic pointer
// load.
func (t *Topic) ReadView() ReadView { return ReadView{v: t.view.Load()} }

// Batches returns the number of non-empty batches behind the view.
func (rv ReadView) Batches() int { return rv.v.Batches }

// SkippedBatches returns the number of empty batches skipped.
func (rv ReadView) SkippedBatches() int { return rv.v.Skips }

// StreamPos returns the view's stream fingerprint: the batch counter and
// the solver's random-stream position at publication. Views with equal
// fingerprints carry bit-identical estimates, on any replica, after any
// restore or replay — which makes the fingerprint a correct strong cache
// validator (triclustd derives its ETags from it).
func (rv ReadView) StreamPos() (batches int, randDraws uint64) {
	return rv.v.Batches, rv.v.RandDraws
}

// Epoch returns the ownership epoch the view was published under.
func (rv ReadView) Epoch() uint64 { return rv.v.Epoch }

// LastTime returns the timestamp of the most recent non-empty batch, or
// ok = false before the first one.
func (rv ReadView) LastTime() (int, bool) { return rv.v.LastTime, rv.v.HasTime }

// KnownUsers returns the number of users with recorded history.
func (rv ReadView) KnownUsers() int { return rv.v.KnownUsers }

// Users returns the size of the topic's user universe.
func (rv ReadView) Users() int { return rv.v.NumUsers }

// VocabSize returns the frozen vocabulary's size (0 before the freeze).
func (rv ReadView) VocabSize() int { return rv.v.VocabSize }

// Frozen reports whether the vocabulary was fixed at publication.
func (rv ReadView) Frozen() bool { return rv.v.Frozen }

// UserEstimate returns the view's sentiment estimate for a user, or
// ok = false if the user had no history when the view was published.
func (rv ReadView) UserEstimate(user int) (Sentiment, bool) {
	return rv.v.UserEstimate(user)
}

// FeatureSentiments returns the labeled per-word sentiments of the most
// recent solve (nil before the first one), in vocabulary feature-index
// order. The slice is shared with the view: treat it as read-only.
func (rv ReadView) FeatureSentiments() []Sentiment { return rv.v.Features }

// Convergence returns the view's progress indicator.
func (rv ReadView) Convergence() Convergence {
	return Convergence{State: rv.v.State, Batches: rv.v.Batches, Delta: rv.v.Delta}
}

// ConformanceReport returns the stream-conformance summary the view was
// published with (see Topic.ConformanceReport). The report is shared
// with the view: treat it as read-only.
func (rv ReadView) ConformanceReport() *ConformanceReport {
	return rv.v.Conform
}

// Restore rebuilds a Topic from a snapshot written by Topic.Snapshot. The
// snapshot's checksum, magic and format version are verified before any
// state is applied; a truncated or corrupted snapshot is rejected whole.
func Restore(r io.Reader) (*Topic, error) {
	st, err := codec.Decode(r)
	if err != nil {
		return nil, err
	}
	sess, err := engine.RestoreSession(st)
	if err != nil {
		return nil, err
	}
	t := &Topic{model: sess.Model(), sess: sess}
	// A restored topic serves reads immediately: publish its view before
	// the handle escapes, so journal replay and replica promotion answer
	// progressive estimates while they catch the stream up.
	t.publish(st.LastFactors, st.Epoch)
	return t, nil
}
