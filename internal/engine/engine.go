// Package engine decomposes the tri-clustering pipeline into explicit,
// reusable stages wired around two long-lived types:
//
//   - Model holds the frozen per-topic artifacts: the tokenizer, the
//     vocabulary (fixed once so Sf(t) matrices stay comparable across
//     snapshots), the cached lexicon prior Sf0, and the solver
//     configuration. A Model is safe for concurrent use once built; the
//     vocabulary freezes exactly once.
//   - Session holds the per-topic mutable state: the online solver with
//     its user history, a reusable core.Problem skeleton, and the
//     snapshot-construction scratch buffers. Sessions serialize their own
//     Process calls with an internal mutex; independent sessions run
//     concurrently.
//
// One rule covers concurrency: writers (Process, FitCorpus, the freeze,
// ExportState, BuildView) take the Session's or the Model's lock; nothing
// that reports a result or a counter takes any lock. A Session has no
// reader methods — BuildView materializes its results and counters as an
// immutable View, and whoever asks reads the View the owner published.
//
// The pipeline stages, shared by the offline (Model.FitCorpus) and online
// (Session.Process) paths, are:
//
//	tokenize → vocabulary → graph build → lexicon prior → solve → label
//
// Stages 1–4 are Model methods (Tokenize, EnsureVocabulary, tgraph
// builders, Prior); stage 5 is core.FitOffline / core.Online.Step; stage 6
// is Label. The prior and the problem scaffolding are reused across a
// session's batches with zero steady-state heap allocation.
package engine

import (
	"errors"
	"fmt"
	"sync"

	"triclust/internal/conform"
	"triclust/internal/core"
	"triclust/internal/lexicon"
	"triclust/internal/mat"
	"triclust/internal/text"
	"triclust/internal/tgraph"
)

// Config assembles everything a Model needs. Zero-valued fields are
// replaced with the paper's defaults by NewModel.
type Config struct {
	// Online is the solver configuration; the offline path uses its
	// embedded Config, the online path all of it.
	Online core.OnlineConfig
	// Lexicon seeds the feature prior Sf0 (nil: the built-in polarity
	// lexicon).
	Lexicon *lexicon.Lexicon
	// LexiconHit is the prior mass a listed word puts on its class
	// (default 0.8).
	LexiconHit float64
	// Weighting selects TF / TF-IDF / binary features (default TF-IDF).
	Weighting text.Weighting
	// MinDF prunes vocabulary words occurring in fewer documents
	// (default 2).
	MinDF int
	// Tokenizer controls text normalization for tweets without Tokens.
	Tokenizer text.TokenizerOptions
	// Conform tunes the stream-conformance profile every session
	// accumulates (zero-valued fields select the defaults). The profile
	// always accumulates and scores; what a verdict does is the session's
	// runtime conformance mode (Session.SetConformMode).
	Conform conform.Params
}

func (c Config) withDefaults() Config {
	if c.Lexicon == nil {
		c.Lexicon = lexicon.Builtin()
	}
	return c.withScalarDefaults()
}

// withScalarDefaults fills every default but the lexicon, which Validate
// does not look at and a frozen restore does not have.
func (c Config) withScalarDefaults() Config {
	if c.LexiconHit == 0 {
		c.LexiconHit = 0.8
	}
	if c.MinDF == 0 {
		c.MinDF = 2
	}
	if c.Online.K == 0 {
		if onlineUnset(c.Online) {
			// Nothing configured at all: the paper's full online setup.
			c.Online = core.DefaultOnlineConfig()
		} else {
			// K alone left to default: keep the caller's other fields
			// (zero α/β/γ are legitimate "regularizer off" settings; the
			// core solvers default MaxIter/Tol/τ/w themselves).
			c.Online.K = core.DefaultOnlineConfig().K
		}
	}
	return c
}

// Validate reports configuration the pipeline cannot run with, after
// filling defaults (so unset fields never fail). Beyond the solver checks
// of core.OnlineConfig.Validate it enforces the pipeline-level contracts:
// MinDF must not be negative, the class count must match what a polarity
// lexicon prior can seed (k ∈ {2, 3}: positive/negative plus optional
// neutral), and the lexicon hit mass must be a valid row maximum.
func (c Config) Validate() error {
	if c.MinDF < 0 {
		return fmt.Errorf("engine: MinDF must not be negative (got %d)", c.MinDF)
	}
	d := c.withScalarDefaults()
	if err := d.Online.Validate(); err != nil {
		return err
	}
	if k := d.Online.K; k < 2 || k > 3 {
		return fmt.Errorf("engine: k = %d, but the lexicon prior defines the classes positive/negative(/neutral), so k must be 2 or 3", k)
	}
	if hit, k := d.LexiconHit, d.Online.K; hit < 1/float64(k) || hit > 1 {
		return fmt.Errorf("engine: LexiconHit must lie in [1/k, 1] = [%.3g, 1] (got %g)", 1/float64(k), hit)
	}
	switch d.Weighting {
	case text.TF, text.TFIDF, text.Binary:
	default:
		return fmt.Errorf("engine: unknown weighting scheme %d", d.Weighting)
	}
	return c.Conform.Validate()
}

// onlineUnset reports whether every distinguishing field of the online
// configuration is zero-valued, i.e. the caller configured nothing.
func onlineUnset(c core.OnlineConfig) bool {
	return c.K == 0 && c.Alpha == 0 && c.Beta == 0 && c.Gamma == 0 &&
		c.Tau == 0 && c.Window == 0 && c.MaxIter == 0 && c.Tol == 0 &&
		c.Seed == 0 && !c.LexiconInit
}

// Model is the frozen, shareable half of a topic: configuration,
// tokenizer, vocabulary and the cached lexicon prior. Construct with
// NewModel; derive per-stream state with NewSession.
type Model struct {
	cfg       core.OnlineConfig
	lex       *lexicon.Lexicon // read by the freeze only; nil in a model restored frozen
	hit       float64
	weighting text.Weighting
	minDF     int
	tok       *text.Tokenizer
	conformP  conform.Params

	mu    sync.RWMutex
	vb    *text.VocabBuilder // pre-freeze document-frequency counts
	vocab *text.Vocabulary   // non-nil once frozen
	sf0   *mat.Dense         // built exactly once per vocabulary
}

// NewModel builds a Model from cfg, filling defaults.
func NewModel(cfg Config) *Model {
	cfg = cfg.withDefaults()
	return &Model{
		cfg:       cfg.Online,
		lex:       cfg.Lexicon,
		hit:       cfg.LexiconHit,
		weighting: cfg.Weighting,
		minDF:     cfg.MinDF,
		tok:       text.NewTokenizer(cfg.Tokenizer),
		conformP:  cfg.Conform,
		vb:        text.NewVocabBuilder(),
	}
}

// Config returns the solver configuration (the offline path uses the
// embedded Config).
func (m *Model) Config() core.OnlineConfig { return m.cfg }

// Tokenizer returns the model's tokenizer.
func (m *Model) Tokenizer() *text.Tokenizer { return m.tok }

// Tokenize is stage 1: it fills Tokens for every tweet of c that has none.
func (m *Model) Tokenize(c *tgraph.Corpus) { c.Tokenize(m.tok) }

// Vocabulary returns the frozen vocabulary, or nil before the freeze.
func (m *Model) Vocabulary() *text.Vocabulary {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.vocab
}

// AccumulateVocabulary folds tokenized documents into the pre-freeze
// document-frequency counts, letting callers seed the vocabulary from
// warm-up data before the first processed batch fixes it. It errors once
// the vocabulary is frozen.
func (m *Model) AccumulateVocabulary(docs [][]string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.vocab != nil {
		return errors.New("engine: vocabulary already frozen")
	}
	m.vb.Add(docs...)
	return nil
}

// EnsureVocabulary is stage 2: on the first call it folds docs into the
// accumulated document frequencies, freezes the vocabulary at MinDF and
// builds the cached Sf0 prior (stage 4's artifact); later calls return the
// frozen vocabulary unchanged. Safe for concurrent use.
func (m *Model) EnsureVocabulary(docs [][]string) *text.Vocabulary {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.vocab == nil {
		m.vb.Add(docs...)
		m.freezeLocked(m.vb.Build(m.minDF))
	}
	return m.vocab
}

// FreezeNow fixes the vocabulary from the document frequencies
// accumulated so far (via AccumulateVocabulary), without waiting for a
// first processed batch. It errors if the vocabulary is already frozen or
// if the accumulated counts yield no words at MinDF.
func (m *Model) FreezeNow() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.vocab != nil {
		return errors.New("engine: vocabulary already frozen")
	}
	v := m.vb.Build(m.minDF)
	if v.Len() == 0 {
		return fmt.Errorf("engine: warm-up documents yield an empty vocabulary at MinDF=%d", m.minDF)
	}
	m.freezeLocked(v)
	return nil
}

func (m *Model) freezeLocked(v *text.Vocabulary) {
	m.vocab = v
	m.sf0 = m.lex.Sf0(v, m.cfg.K, m.hit)
}

// Prior is stage 4: the l×k lexicon prior Sf0 for the frozen vocabulary,
// built exactly once per vocabulary and returned without further
// allocation. It is nil before the vocabulary freeze. Callers must treat
// the returned matrix as read-only.
func (m *Model) Prior() *mat.Dense {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.sf0
}

// FitCorpus runs the full offline pipeline (Algorithm 1) over a corpus:
// tokenize → vocabulary (frozen from this corpus when not already set) →
// graph build → prior → solve → label.
func (m *Model) FitCorpus(c *tgraph.Corpus) (*Outcome, error) {
	if c == nil {
		return nil, errors.New("engine: nil corpus")
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	m.Tokenize(c)
	vocab := m.EnsureVocabulary(c.TokenDocs())
	g := tgraph.Build(c, tgraph.BuildOptions{Weighting: m.weighting, Vocab: vocab})
	var p core.Problem
	p.Reset(g.Xp, g.Xu, g.Xr, g.Gu, m.Prior())
	res, err := core.FitOffline(&p, m.cfg.Config)
	if err != nil {
		return nil, err
	}
	return newOutcome(res, nil), nil
}

// Predict classifies tokenized documents against fitted factors by NMF
// fold-in without re-running the solver. Out-of-vocabulary words are
// ignored.
func (m *Model) Predict(f *core.Factors, docs [][]string) ([]Sentiment, error) {
	vocab := m.Vocabulary()
	if vocab == nil {
		return nil, errors.New("engine: vocabulary not frozen")
	}
	xp := text.DocFeatureMatrix(docs, vocab, m.weighting)
	sp, err := core.FoldInTweets(f, xp)
	if err != nil {
		return nil, err
	}
	return Label(sp), nil
}

// Outcome is the labeled output of one pipeline run (offline fit or one
// online step), with sentiments in the caller's input ordering.
type Outcome struct {
	// Res exposes the factor matrices and loss history. Its Sp rows
	// follow the caller's tweet ordering (Session.Process restores it
	// after canonicalization).
	Res *core.Result
	// TweetSentiments / UserSentiments / FeatureSentiments label the
	// factor rows.
	TweetSentiments   []Sentiment
	UserSentiments    []Sentiment
	FeatureSentiments []Sentiment
	// Active maps user-sentiment rows to global user indices (online
	// only; nil offline, where rows already follow the corpus).
	Active []int
	// Conform is the batch's conformance verdict, when the session's
	// profile had warmed up enough to score it (nil during warm-up and
	// on the offline path). The batch was applied regardless: an
	// enforce-mode rejection returns a *conform.BatchError instead.
	Conform *conform.Verdict
	// Skipped marks a no-op step (empty batch): no solver ran, no state
	// advanced, every slice above is empty.
	Skipped bool
}

func newOutcome(res *core.Result, active []int) *Outcome {
	return &Outcome{
		Res:               res,
		TweetSentiments:   Label(res.Sp),
		UserSentiments:    Label(res.Su),
		FeatureSentiments: Label(res.Sf),
		Active:            active,
	}
}

// skippedOutcome is the well-defined result of an empty batch.
func skippedOutcome() *Outcome {
	return &Outcome{
		TweetSentiments:   []Sentiment{},
		UserSentiments:    []Sentiment{},
		FeatureSentiments: []Sentiment{},
		Active:            []int{},
		Skipped:           true,
	}
}
