package engine

import (
	"fmt"

	"triclust/internal/conform"
	"triclust/internal/core"
	"triclust/internal/lexicon"
	"triclust/internal/mat"
	"triclust/internal/text"
	"triclust/internal/tgraph"
)

// State is the complete serializable state of one topic: the Model's
// frozen artifacts (configuration, lexicon, vocabulary, cached Sf0 prior),
// the Session's counters and user universe, and the Online solver's
// history and random-stream position. A Session restored from an exported
// State continues the stream bit-identically, at any kernel parallelism
// width: every input to every future pipeline stage —
// vocabulary, prior, solver history, RNG draws — is reproduced exactly.
//
// internal/codec serializes a State to the versioned binary snapshot
// format; this type is the codec's in-memory schema.
type State struct {
	// Config is the fully defaulted solver configuration.
	Config core.OnlineConfig
	// Weighting / MinDF / LexiconHit / Tokenizer mirror engine.Config.
	Weighting  text.Weighting
	MinDF      int
	LexiconHit float64
	Tokenizer  text.TokenizerOptions
	// Lexicon is the word→class map that seeds Sf0 at the vocabulary
	// freeze. Nil once Frozen: Sf0 below is authoritative from then on and
	// nothing reads the lexicon again, so ExportState leaves it out and
	// RestoreSession ignores one an older snapshot still carries.
	Lexicon map[string]int

	// Frozen reports whether the vocabulary is fixed. When true,
	// VocabWords and Sf0 carry the frozen artifacts; when false,
	// VocabCounts/VocabDocs carry the pre-freeze document frequencies
	// (warm-up state).
	Frozen      bool
	VocabWords  []string
	Sf0         *mat.Dense
	VocabCounts map[string]int
	VocabDocs   int

	// Users is the session's fixed user universe.
	Users []tgraph.User
	// Batches / Skips are the session's step counters.
	Batches, Skips int

	// Online is the solver's mutable state.
	Online *core.OnlineState

	// LastFactors optionally carries Sf, Hp and Hu of the most recent
	// solve, so fold-in prediction and the read view work immediately
	// after a restore. Sp and Su describe one batch's tweets and users,
	// nothing after a restore reads them, and they are not part of the
	// state: the codec does not store them. Nil when the topic never
	// solved (or the exporter chose not to include them); Restore
	// tolerates nil.
	LastFactors *core.Factors

	// Epoch is the topic's ownership epoch in a sharded deployment: 0 for
	// a topic that never changed shards, incremented by one on every
	// hand-off. It rides inside the snapshot so the receiving shard can
	// fence out stale (pre-move) snapshots; it does not influence the
	// solver or the session.
	Epoch uint64

	// Conform is the stream-conformance profile's state. Nil in states
	// decoded from snapshots without a profile section (and tolerated by
	// Restore, which starts a fresh default profile); the codec omits the
	// section when the state is the fresh default, so such snapshots stay
	// byte-identical across the upgrade.
	Conform *conform.ProfileState
}

// ExportState deep-copies the session's full state (model + session +
// solver). Safe to call concurrently with Process: it takes both the
// session and model locks.
func (s *Session) ExportState() *State {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := &State{
		Config:    s.online.Config(),
		Users:     append([]tgraph.User(nil), s.users...),
		Batches:   s.batches,
		Skips:     s.skips,
		Online:    s.online.ExportState(),
		MinDF:     s.model.minDF,
		Weighting: s.model.weighting,
		Tokenizer: s.model.tok.Options(),
	}
	st.LexiconHit = s.model.hit
	prof := s.prof.State()
	st.Conform = &prof

	s.model.mu.RLock()
	defer s.model.mu.RUnlock()
	if s.model.vocab != nil {
		st.Frozen = true
		st.VocabWords = s.model.vocab.Words()
		st.Sf0 = s.model.sf0.Clone()
	} else {
		st.Lexicon = s.model.lex.Entries()
		st.VocabCounts = s.model.vb.Counts()
		st.VocabDocs = s.model.vb.Docs()
	}
	return st
}

// RestoreSession rebuilds a Model and Session from an exported State. The
// state is deep-copied; mutating it afterwards does not affect the
// session. The restored session continues exactly where the exported one
// stopped.
func RestoreSession(st *State) (*Session, error) {
	if st == nil {
		return nil, fmt.Errorf("engine: nil state")
	}
	if st.Config.K < 1 {
		return nil, fmt.Errorf("engine: state has k = %d", st.Config.K)
	}
	// The codec decodes counters as uint64 and casts to int, so a crafted
	// snapshot can smuggle in negative values the session arithmetic never
	// produces.
	if st.Batches < 0 || st.Skips < 0 || st.VocabDocs < 0 {
		return nil, fmt.Errorf("engine: negative counters in state (batches=%d, skips=%d, docs=%d)",
			st.Batches, st.Skips, st.VocabDocs)
	}
	// Only the freeze reads the lexicon: a frozen state needs none, and one
	// it carries (snapshots before format version 5 did) is not rebuilt.
	var lex *lexicon.Lexicon
	if !st.Frozen {
		var err error
		if lex, err = lexicon.FromEntries(st.Lexicon); err != nil {
			return nil, fmt.Errorf("engine: restore lexicon: %w", err)
		}
	}
	// A snapshot is framed and checksummed but not signed: hold its
	// configuration to the same contract NewTopic enforces, so a crafted
	// or hand-edited snapshot cannot smuggle in parameters the public
	// API rejects (negative decay, k the prior cannot seed, …).
	cfg := Config{
		Online:     st.Config,
		Lexicon:    lex,
		LexiconHit: st.LexiconHit,
		Weighting:  st.Weighting,
		MinDF:      st.MinDF,
		Tokenizer:  st.Tokenizer,
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("engine: snapshot configuration: %w", err)
	}
	m := &Model{
		cfg:       st.Config,
		lex:       lex,
		hit:       st.LexiconHit,
		weighting: st.Weighting,
		minDF:     st.MinDF,
		tok:       text.NewTokenizer(st.Tokenizer),
		vb:        text.NewVocabBuilderFromCounts(st.VocabCounts, st.VocabDocs),
	}
	if st.Frozen {
		if st.Sf0 == nil {
			return nil, fmt.Errorf("engine: frozen state carries no Sf0 prior")
		}
		if !st.Sf0.Dims(len(st.VocabWords), st.Config.K) {
			return nil, fmt.Errorf("engine: Sf0 is %dx%d for %d words, k=%d",
				st.Sf0.Rows(), st.Sf0.Cols(), len(st.VocabWords), st.Config.K)
		}
		m.vocab = text.NewVocabularyFromWords(st.VocabWords)
		if m.vocab.Len() != len(st.VocabWords) {
			return nil, fmt.Errorf("engine: vocabulary words not distinct")
		}
		// The snapshot's Sf0 is authoritative (not recomputed from the
		// lexicon) so a restored topic is bit-identical even if prior
		// construction ever changes.
		m.sf0 = st.Sf0.Clone()
	}
	if err := validateStateShapes(st); err != nil {
		return nil, err
	}
	online, err := core.NewOnlineFromState(st.Config, st.Online)
	if err != nil {
		return nil, err
	}
	// A state without a profile starts a fresh default one (it begins
	// learning from the next batch).
	var prof *conform.Profile
	if st.Conform == nil {
		prof = conform.NewProfile(conform.Params{})
	} else if prof, err = conform.NewProfileFromState(*st.Conform); err != nil {
		return nil, err
	}
	return &Session{
		model:   m,
		users:   append([]tgraph.User(nil), st.Users...),
		online:  online,
		in:      text.NewInterner(),
		prof:    prof,
		batches: st.Batches,
		skips:   st.Skips,
	}, nil
}

// validateStateShapes cross-checks the state's components against each
// other: solver history and last factors must agree with the vocabulary
// and class count, user history must name users of the universe (the
// solver indexes it by user id), and a never-frozen topic cannot carry
// solver results.
// core.NewOnlineFromState separately checks the solver state's internal
// shapes; together they ensure a valid-checksum but crafted snapshot is
// rejected at restore instead of panicking inside a later Process or
// Predict.
func validateStateShapes(st *State) error {
	k := st.Config.K
	if st.Online != nil {
		for _, g := range st.Online.UserIDs {
			if g < 0 || g >= len(st.Users) {
				return fmt.Errorf("engine: history for user %d outside the %d-user universe", g, len(st.Users))
			}
		}
	}
	if !st.Frozen {
		if st.Batches > 0 {
			return fmt.Errorf("engine: state has %d batches but no frozen vocabulary", st.Batches)
		}
		if st.Online != nil && (len(st.Online.SfHist) > 0 || st.Online.LastHp != nil || st.Online.LastHu != nil) {
			return fmt.Errorf("engine: state has solver history but no frozen vocabulary")
		}
		if st.LastFactors != nil {
			return fmt.Errorf("engine: state has fitted factors but no frozen vocabulary")
		}
		return nil
	}
	words := len(st.VocabWords)
	if st.Online != nil {
		for i, s := range st.Online.SfHist {
			if s.Sf != nil && s.Sf.Rows() != words {
				return fmt.Errorf("engine: feature snapshot %d has %d rows for %d vocabulary words",
					i, s.Sf.Rows(), words)
			}
		}
	}
	if f := st.LastFactors; f != nil {
		if f.Sf == nil || f.Hp == nil || f.Hu == nil {
			return fmt.Errorf("engine: last factors missing Sf/Hp/Hu")
		}
		if !f.Sf.Dims(words, k) {
			return fmt.Errorf("engine: last Sf is %dx%d for %d words, k=%d",
				f.Sf.Rows(), f.Sf.Cols(), words, k)
		}
		if !f.Hp.Dims(k, k) || !f.Hu.Dims(k, k) {
			return fmt.Errorf("engine: last association cores are %dx%d / %dx%d, want %dx%d",
				f.Hp.Rows(), f.Hp.Cols(), f.Hu.Rows(), f.Hu.Cols(), k, k)
		}
	}
	return nil
}
