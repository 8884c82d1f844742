package text

import (
	"math"

	"triclust/internal/sparse"
)

// Weighting selects the feature weighting scheme for document–feature
// matrices.
type Weighting int

const (
	// TF uses raw term counts.
	TF Weighting = iota
	// TFIDF uses tf · ln((1+N)/(1+df)) + 1 smoothing, the standard
	// smoothed inverse-document-frequency weighting.
	TFIDF
	// Binary uses 0/1 presence indicators.
	Binary
)

// DocFeatureMatrix builds the n×l document–feature matrix (the paper's Xp
// when documents are tweets, or the per-user aggregation source for Xu)
// from tokenized documents under the given vocabulary and weighting.
// Out-of-vocabulary tokens are ignored.
func DocFeatureMatrix(docs [][]string, vocab *Vocabulary, w Weighting) *sparse.CSR {
	var s FeatureScratch
	return s.DocFeatureMatrixInto(nil, docs, vocab, w)
}

// FeatureScratch holds the reusable construction state — the triplet
// builder, the per-document dedup set and the document-frequency buffer —
// so that per-batch feature-matrix builds stop allocating once buffers
// reach their steady size. The zero value is ready to use; not safe for
// concurrent use.
type FeatureScratch struct {
	coo  sparse.COO
	seen map[int]struct{}
	df   []float64
}

// DocFeatureMatrixInto is DocFeatureMatrix emitting into a reusable dst
// (nil allocates one).
func (s *FeatureScratch) DocFeatureMatrixInto(dst *sparse.CSR, docs [][]string, vocab *Vocabulary, w Weighting) *sparse.CSR {
	n, l := len(docs), vocab.Len()
	s.coo.Reset(n, l)
	switch w {
	case Binary:
		if s.seen == nil {
			s.seen = make(map[int]struct{})
		}
		for i, doc := range docs {
			clear(s.seen)
			for _, tok := range doc {
				j := vocab.ID(tok)
				if j < 0 {
					continue
				}
				if _, dup := s.seen[j]; dup {
					continue
				}
				s.seen[j] = struct{}{}
				s.coo.Add(i, j, 1)
			}
		}
		return s.coo.ToCSRInto(dst)
	case TF:
		for i, doc := range docs {
			for _, tok := range doc {
				if j := vocab.ID(tok); j >= 0 {
					s.coo.Add(i, j, 1)
				}
			}
		}
		return s.coo.ToCSRInto(dst)
	case TFIDF:
		tf := s.DocFeatureMatrixInto(dst, docs, vocab, TF)
		s.df = InverseDocumentFrequencyInto(s.df, tf)
		tf.ScaleColsInPlace(s.df)
		return tf
	default:
		panic("text: unknown weighting")
	}
}

// UserFeatureMatrixInto aggregates an n×l tweet–feature matrix into the m×l
// user–feature matrix Xu by summing the rows of each user's tweets, emitting
// into a reusable dst (nil allocates one). owner[i] gives the user index of
// tweet i; tweets with owner -1 are skipped.
func (s *FeatureScratch) UserFeatureMatrixInto(dst *sparse.CSR, xp *sparse.CSR, owner []int, numUsers int) *sparse.CSR {
	if len(owner) != xp.Rows() {
		panic("text: owner length must match tweet count")
	}
	s.coo.Reset(numUsers, xp.Cols())
	for i := 0; i < xp.Rows(); i++ {
		u := owner[i]
		if u < 0 {
			continue
		}
		cols, vals := xp.Row(i)
		for p, j := range cols {
			s.coo.Add(u, j, vals[p])
		}
	}
	return s.coo.ToCSRInto(dst)
}

// InverseDocumentFrequencyInto computes the smoothed IDF vector
// idf(j) = ln((1+N)/(1+df(j))) + 1 of an n×l term-frequency matrix into
// dst, reusing its backing array when large enough.
func InverseDocumentFrequencyInto(dst []float64, tf *sparse.CSR) []float64 {
	n := tf.Rows()
	l := tf.Cols()
	if cap(dst) < l {
		dst = make([]float64, l)
	} else {
		dst = dst[:l]
		for j := range dst {
			dst[j] = 0
		}
	}
	for i := 0; i < n; i++ {
		cols, _ := tf.Row(i)
		for _, j := range cols {
			dst[j]++
		}
	}
	for j, d := range dst {
		dst[j] = math.Log((1+float64(n))/(1+d)) + 1
	}
	return dst
}
