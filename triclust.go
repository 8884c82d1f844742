// Package triclust is a Go implementation of "Tripartite Graph Clustering
// for Dynamic Sentiment Analysis on Social Media" (Zhu, Galstyan, Cheng,
// Lerman; SIGMOD 2014). It jointly infers tweet-level and user-level
// sentiment by co-clustering the tripartite graph of features, tweets and
// users via non-negative matrix tri-factorization, with lexicon and
// user-graph regularization (offline) and temporal regularization over a
// stream of snapshots (online).
//
// # The Topic lifecycle
//
// The unit of work is a Topic: a durable, versioned value holding one
// topic's complete analysis state — configuration, vocabulary, lexicon
// prior, solver factors and per-user history. Both the paper's algorithms
// run against the same Topic:
//
//	t, _ := triclust.NewTopic(users,
//		triclust.WithMinDF(2),
//		triclust.WithSolverConfig(triclust.OnlineConfig{}))
//
//	t.WarmupVocabulary(historicalTexts...) // optional vocabulary seeding
//	t.Freeze()                             // optional explicit freeze
//
//	out, _ := t.Process(day, batch) // online steps (Algorithm 2)
//	res, _ := t.FitCorpus(corpus)   // or a one-shot offline fit (Algorithm 1)
//	preds, _ := t.Predict(texts)    // fold-in against the last factors
//
// The vocabulary freezes exactly once — explicitly via Freeze, or
// implicitly at the first processed batch or offline fit — because the
// online algorithm requires comparable Sf(t) matrices across snapshots.
//
// # Durable snapshots
//
// Topic.Snapshot serializes the full state into a self-describing,
// versioned binary snapshot; Restore rebuilds a topic that continues the
// stream bit-identically, at any kernel parallelism width:
//
//	var buf bytes.Buffer
//	_ = t.Snapshot(&buf)
//	t2, _ := triclust.Restore(&buf) // t2.Process(day+1, ...) ≡ t.Process(day+1, ...)
//
// Snapshots survive process restarts; cmd/triclustd uses them for its
// -data-dir durability and its PUT /v1/topics/{topic} restore endpoint.
//
// # Concurrency
//
// A Topic is safe for concurrent use. Writers (Process, FitCorpus, Freeze,
// SetEpoch, Snapshot's export) take Topic.mu; nothing that reports a result
// or a counter takes any lock — each is a load of the immutable view the
// last writer published, so a read never waits on a solve.
//
// # Architecture
//
// Topic is a thin façade over internal/engine, which decomposes the
// pipeline into explicit stages — tokenize → vocabulary → graph build →
// lexicon prior → solve → label — around two long-lived types:
// engine.Model holds the frozen per-topic artifacts (tokenizer,
// vocabulary, cached Sf0 prior, configuration) and engine.Session the
// per-topic mutable state (the Algorithm-2 solver with its user history
// plus reusable problem scaffolding). internal/codec serializes both into
// the snapshot format. The numerical heavy lifting lives in internal/core
// (the paper's Algorithms 1 and 2) on the parallel kernels of
// internal/mat and internal/sparse. cmd/triclustd serves many concurrent
// durable topics over a versioned HTTP API on the same engine.
package triclust

import (
	"fmt"

	"triclust/internal/core"
	"triclust/internal/engine"
	"triclust/internal/lexicon"
	"triclust/internal/tgraph"
)

// Re-exported data-model types. See the corresponding internal packages
// for details.
type (
	// Corpus is a collection of tweets and users about one topic.
	Corpus = tgraph.Corpus
	// Tweet is one post: text or tokens, author, timestamp, optional
	// retweet target and ground-truth label.
	Tweet = tgraph.Tweet
	// User carries user metadata and an optional ground-truth label.
	User = tgraph.User
	// Config holds the offline hyper-parameters (k, α, β, iterations,
	// tolerance, seed).
	Config = core.Config
	// OnlineConfig adds the temporal parameters (γ, τ, window).
	OnlineConfig = core.OnlineConfig
	// Lexicon is a sentiment word list seeding the feature prior Sf0.
	Lexicon = lexicon.Lexicon
	// Sentiment is one item's inferred class with its soft membership,
	// the output of the engine's labeling stage.
	Sentiment = engine.Sentiment
)

// NoLabel marks an unlabeled tweet or user.
const NoLabel = tgraph.NoLabel

// Sentiment classes. Cluster j is aligned with class j through the
// lexicon prior (emotion consistency, Eq. 5).
const (
	Pos = lexicon.Pos
	Neg = lexicon.Neg
	Neu = lexicon.Neu
)

// DefaultConfig returns the paper's offline solver configuration (§5.1:
// k = 3, α = 0.05, β = 0.8).
func DefaultConfig() Config { return core.DefaultConfig() }

// DefaultOnlineConfig returns the paper's online solver configuration
// (§5.2: α = τ = 0.9, β = 0.8, γ = 0.2, w = 2).
func DefaultOnlineConfig() OnlineConfig { return core.DefaultOnlineConfig() }

// ClassName returns "positive" / "negative" / "neutral".
func ClassName(c int) string {
	switch c {
	case Pos:
		return "positive"
	case Neg:
		return "negative"
	case Neu:
		return "neutral"
	default:
		return fmt.Sprintf("class%d", c)
	}
}

// Result is the outcome of an offline fit or one online step.
type Result struct {
	// TweetSentiments and UserSentiments follow the input ordering.
	TweetSentiments []Sentiment
	UserSentiments  []Sentiment
	// Vocabulary maps feature indices to words; FeatureSentiments
	// follows it.
	Vocabulary        []string
	FeatureSentiments []Sentiment
	// Iterations and Converged describe the solver run.
	Iterations int
	Converged  bool
	// Raw exposes the factor matrices and loss history for analysis.
	Raw *core.Result
}

// resultFrom adapts an engine outcome to the public Result shape.
func resultFrom(out *engine.Outcome, m *engine.Model) *Result {
	r := &Result{
		TweetSentiments:   out.TweetSentiments,
		UserSentiments:    out.UserSentiments,
		FeatureSentiments: out.FeatureSentiments,
	}
	if v := m.Vocabulary(); v != nil {
		r.Vocabulary = v.Words()
	}
	if out.Res != nil {
		r.Iterations = out.Res.Iterations
		r.Converged = out.Res.Converged
		r.Raw = out.Res
	}
	return r
}

// StreamOptions is what is left of the removed Stream API: the one field of
// its option struct the benchmark still reads.
//
// Deprecated: nothing takes a StreamOptions. The type and
// DefaultStreamOptions stay only until bench/replay.go, which a change to
// the library may not edit, stops spelling the default solver configuration
// DefaultStreamOptions().Config; write DefaultOnlineConfig().
type StreamOptions struct {
	// Config is the online solver configuration (DefaultOnlineConfig).
	Config OnlineConfig
}

// DefaultStreamOptions returns the paper's online configuration.
//
// Deprecated: see StreamOptions.
func DefaultStreamOptions() StreamOptions {
	return StreamOptions{Config: core.DefaultOnlineConfig()}
}

// StreamResult extends Result with the mapping from batch rows to the
// caller's user identifiers.
type StreamResult struct {
	Result
	// ActiveUsers[i] is the global user index of UserSentiments[i].
	ActiveUsers []int
	// Skipped reports that the batch was empty and the step was a
	// well-defined no-op: no solver ran, the vocabulary was not frozen,
	// the timestamp was not consumed and user history is untouched.
	Skipped bool
	// Conformance is the batch's conformance verdict against the topic's
	// learned stream profile, nil while the profile is still warming up.
	// The batch was applied regardless of the verdict: in enforce mode a
	// quarantined batch is rejected with a *ConformanceError instead of
	// producing a StreamResult.
	Conformance *ConformanceVerdict
}

// BuiltinLexicon returns the general-purpose polarity lexicon.
func BuiltinLexicon() *Lexicon { return lexicon.Builtin() }

// InduceLexicon rebuilds a topic lexicon from labeled documents (see
// internal/lexicon.Induce).
func InduceLexicon(docs [][]string, labels []int, minCount int, ratio float64) *Lexicon {
	return lexicon.Induce(docs, labels, minCount, ratio)
}
