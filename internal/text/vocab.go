package text

import "sort"

// Vocabulary maps feature tokens to dense column indices. The zero value is
// not usable; construct with NewVocabulary or BuildVocabulary.
type Vocabulary struct {
	index map[string]int
	words []string
}

// NewVocabulary returns an empty vocabulary.
func NewVocabulary() *Vocabulary {
	return &Vocabulary{index: make(map[string]int)}
}

// BuildVocabulary constructs a vocabulary from tokenized documents, keeping
// only tokens that occur in at least minDF documents. Tokens are assigned
// indices in lexicographic order for determinism.
func BuildVocabulary(docs [][]string, minDF int) *Vocabulary {
	b := NewVocabBuilder()
	b.Add(docs...)
	return b.Build(minDF)
}

// VocabBuilder accumulates document frequencies incrementally, so a
// vocabulary can be grown from streamed batches before being frozen with
// Build. The resulting vocabulary is identical to BuildVocabulary over the
// concatenation of every Add call (document frequencies are additive and
// the index order is lexicographic, so the arrival order of batches does
// not matter).
type VocabBuilder struct {
	df   map[string]int
	seen map[string]struct{}
	docs int
}

// NewVocabBuilder returns an empty builder.
func NewVocabBuilder() *VocabBuilder {
	return &VocabBuilder{df: make(map[string]int), seen: make(map[string]struct{})}
}

// Add folds tokenized documents into the document-frequency counts.
func (b *VocabBuilder) Add(docs ...[]string) {
	for _, doc := range docs {
		clear(b.seen)
		for _, tok := range doc {
			if _, dup := b.seen[tok]; dup {
				continue
			}
			b.seen[tok] = struct{}{}
			b.df[tok]++
		}
		b.docs++
	}
}

// Docs returns the number of documents added so far.
func (b *VocabBuilder) Docs() int { return b.docs }

// Counts returns a copy of the accumulated document-frequency counts, so
// a builder's pre-freeze state can be serialized.
func (b *VocabBuilder) Counts() map[string]int {
	out := make(map[string]int, len(b.df))
	for tok, n := range b.df {
		out[tok] = n
	}
	return out
}

// NewVocabBuilderFromCounts rebuilds a builder from serialized counts
// (deep-copied). Builds from the restored builder equal builds from the
// original: document frequencies fully determine the vocabulary.
func NewVocabBuilderFromCounts(df map[string]int, docs int) *VocabBuilder {
	b := NewVocabBuilder()
	for tok, n := range df {
		b.df[tok] = n
	}
	b.docs = docs
	return b
}

// NewVocabularyFromWords rebuilds a frozen vocabulary from its word list
// in index order (the inverse of Words).
func NewVocabularyFromWords(words []string) *Vocabulary {
	v := NewVocabulary()
	for _, w := range words {
		v.AddWord(w)
	}
	return v
}

// Build freezes the accumulated counts into a Vocabulary, keeping tokens
// that occur in at least minDF documents, in lexicographic index order.
// The builder remains usable (further Adds feed a later Build).
func (b *VocabBuilder) Build(minDF int) *Vocabulary {
	if minDF < 1 {
		minDF = 1
	}
	kept := make([]string, 0, len(b.df))
	for tok, n := range b.df {
		if n >= minDF {
			kept = append(kept, tok)
		}
	}
	sort.Strings(kept)
	v := NewVocabulary()
	for _, tok := range kept {
		v.AddWord(tok)
	}
	return v
}

// AddWord interns a token, returning its index (existing or new).
func (v *Vocabulary) AddWord(tok string) int {
	if id, ok := v.index[tok]; ok {
		return id
	}
	id := len(v.words)
	v.index[tok] = id
	v.words = append(v.words, tok)
	return id
}

// ID returns the index of tok, or -1 if absent.
func (v *Vocabulary) ID(tok string) int {
	if id, ok := v.index[tok]; ok {
		return id
	}
	return -1
}

// Word returns the token at index id.
func (v *Vocabulary) Word(id int) string { return v.words[id] }

// Len returns the vocabulary size (the paper's l).
func (v *Vocabulary) Len() int { return len(v.words) }

// Words returns a copy of all tokens in index order.
func (v *Vocabulary) Words() []string { return append([]string(nil), v.words...) }
