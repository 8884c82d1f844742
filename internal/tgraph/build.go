package tgraph

import (
	"triclust/internal/sparse"
	"triclust/internal/text"
)

// Graph bundles the four matrices of the tripartite-graph formulation.
// Rows of Xp/Xr columns index tweets of the corpus it was built from;
// rows of Xu/Xr and both dimensions of Gu index users.
type Graph struct {
	// Xp is the n×l tweet–feature matrix.
	Xp *sparse.CSR
	// Xu is the m×l user–feature matrix (sum of the user's tweet rows).
	Xu *sparse.CSR
	// Xr is the m×n user–tweet incidence: Xr(u,p)=1 when u posted or
	// retweeted p (dashed/solid edges of Figure 2).
	Xr *sparse.CSR
	// Gu is the m×m symmetric user–user retweet graph: an edge joins a
	// retweeting user with the author of the original tweet, weighted by
	// the number of such interactions.
	Gu *sparse.CSR
	// Vocab maps feature columns to words.
	Vocab *text.Vocabulary
}

// BuildOptions control graph construction.
type BuildOptions struct {
	// Weighting selects TF / TFIDF / Binary for Xp (the paper uses
	// tf-idf).
	Weighting text.Weighting
	// MinDF prunes vocabulary words occurring in fewer tweets.
	MinDF int
	// Vocab, when non-nil, fixes the vocabulary instead of building one
	// (the online algorithm shares a vocabulary across snapshots).
	Vocab *text.Vocabulary
}

// Build constructs the tripartite graph of a tokenized corpus. Tweets must
// already have Tokens set (call Corpus.Tokenize first for raw text). It is
// the one-shot form of the construction a SnapshotBuilder repeats per batch:
// a builder dedicated to this call, so the graph owns its matrices.
func Build(c *Corpus, opts BuildOptions) *Graph {
	vocab := opts.Vocab
	if vocab == nil {
		vocab = text.BuildVocabulary(c.TokenDocs(), max(opts.MinDF, 1))
	}
	b := SnapshotBuilder{compact: *c}
	b.buildGraphInto(vocab, opts.Weighting)
	g := b.graph
	return &g
}
