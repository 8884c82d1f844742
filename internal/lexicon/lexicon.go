// Package lexicon provides sentiment word lists and the construction of
// the feature–sentiment prior matrix Sf0 used by the emotion-consistency
// regularizer ‖Sf − Sf0‖² (Eq. 5 of the paper).
//
// The paper seeds Sf0 from automatically built "Yes"/"No" word lists for
// the California ballot topics [Smith et al. 2013]. Those lists are not
// redistributable, so this package ships (a) a compact general-purpose
// polarity lexicon and (b) Induce, which rebuilds topic-specific lists
// from any labeled subset of a corpus — mirroring how the originals were
// produced.
package lexicon

import (
	"fmt"
	"sort"

	"triclust/internal/mat"
	"triclust/internal/text"
)

// Class indices follow the paper's convention throughout the repository.
const (
	Pos = 0
	Neg = 1
	Neu = 2
)

// Lexicon maps words to a sentiment class (Pos or Neg; unlisted words are
// implicitly neutral/unknown).
type Lexicon struct {
	class map[string]int
}

// New returns an empty lexicon.
func New() *Lexicon { return &Lexicon{class: make(map[string]int)} }

// Builtin returns a general-purpose English polarity lexicon. It plays the
// role of the MPQA-style seed vocabulary: broad-coverage, topic-agnostic,
// noisy on topic-specific jargon (exactly the failure mode the paper's
// tweet p3 example illustrates).
func Builtin() *Lexicon {
	l := New()
	for _, w := range []string{
		"good", "great", "love", "loved", "awesome", "excellent", "best",
		"support", "yes", "win", "happy", "safe", "right", "benefit",
		"healthy", "protect", "fair", "smart", "strong", "positive",
		"agree", "favor", "thank", "thanks", "hope", "improve", "better",
		"amazing", "wonderful", "proud", "success", "trust", "truth",
	} {
		l.Set(w, Pos)
	}
	for _, w := range []string{
		"bad", "evil", "hate", "hated", "awful", "terrible", "worst",
		"against", "no", "lose", "sad", "danger", "dangerous", "wrong",
		"harm", "toxic", "poison", "unfair", "stupid", "weak", "negative",
		"disagree", "oppose", "fear", "fail", "failure", "worse", "risk",
		"scam", "lie", "lies", "corrupt", "greed", "cancer", "kill",
	} {
		l.Set(w, Neg)
	}
	return l
}

// Set assigns word w to class c (Pos or Neg).
func (l *Lexicon) Set(w string, c int) {
	if c != Pos && c != Neg {
		panic("lexicon: Set accepts Pos or Neg only")
	}
	l.class[w] = c
}

// Class returns the class of w and whether w is listed.
func (l *Lexicon) Class(w string) (int, bool) {
	c, ok := l.class[w]
	return c, ok
}

// Len returns the number of listed words.
func (l *Lexicon) Len() int { return len(l.class) }

// Words returns the listed words of class c in sorted order.
func (l *Lexicon) Words(c int) []string {
	var out []string
	for w, wc := range l.class {
		if wc == c {
			out = append(out, w)
		}
	}
	sort.Strings(out)
	return out
}

// Entries returns a copy of the word→class map, so a lexicon can be
// serialized (e.g. into a topic snapshot).
func (l *Lexicon) Entries() map[string]int {
	out := make(map[string]int, len(l.class))
	for w, c := range l.class {
		out[w] = c
	}
	return out
}

// FromEntries rebuilds a lexicon from a serialized word→class map. It
// rejects classes other than Pos and Neg (the only ones Set accepts).
func FromEntries(entries map[string]int) (*Lexicon, error) {
	l := New()
	for w, c := range entries {
		if c != Pos && c != Neg {
			return nil, fmt.Errorf("lexicon: word %q has invalid class %d", w, c)
		}
		l.class[w] = c
	}
	return l, nil
}

// Merge adds every entry of other, overwriting duplicates.
func (l *Lexicon) Merge(other *Lexicon) {
	for w, c := range other.class {
		l.class[w] = c
	}
}

// Sf0 builds the l×k feature-sentiment prior matrix. A listed word gets
// probability hit on its class with the remainder spread over the other
// classes; an unlisted word gets the uniform row 1/k (no prior opinion).
// hit must lie in [1/k, 1]; the paper does not specify a value, we default
// to 0.8 in callers.
func (l *Lexicon) Sf0(vocab *text.Vocabulary, k int, hit float64) *mat.Dense {
	if k < 2 {
		panic("lexicon: Sf0 requires k >= 2")
	}
	if hit < 1/float64(k) || hit > 1 {
		panic("lexicon: hit outside [1/k, 1]")
	}
	rest := (1 - hit) / float64(k-1)
	uniform := 1 / float64(k)
	out := mat.NewDense(vocab.Len(), k)
	for i := 0; i < vocab.Len(); i++ {
		row := out.Row(i)
		c, listed := l.Class(vocab.Word(i))
		if !listed || c >= k {
			for j := range row {
				row[j] = uniform
			}
			continue
		}
		for j := range row {
			row[j] = rest
		}
		row[c] = hit
	}
	return out
}

// Induce rebuilds a topic lexicon from labeled documents, the way the
// paper's "Yes"/"No" lists were built: a word is assigned to a class when
// its occurrence ratio in that class exceeds ratio (>1) times its
// occurrence in any other class and it appears at least minCount times.
// labels[i] is the class of docs[i] (Pos/Neg; other values are skipped).
func Induce(docs [][]string, labels []int, minCount int, ratio float64) *Lexicon {
	if len(docs) != len(labels) {
		panic("lexicon: Induce length mismatch")
	}
	if ratio <= 1 {
		panic("lexicon: ratio must exceed 1")
	}
	counts := map[string][2]float64{}
	var totals [2]float64
	for i, doc := range docs {
		c := labels[i]
		if c != Pos && c != Neg {
			continue
		}
		for _, w := range doc {
			e := counts[w]
			e[c]++
			counts[w] = e
			totals[c]++
		}
	}
	out := New()
	// Normalize by class volume so the majority class does not swallow
	// every word.
	for w, e := range counts {
		if e[Pos]+e[Neg] < float64(minCount) {
			continue
		}
		p := e[Pos] / (totals[Pos] + 1)
		n := e[Neg] / (totals[Neg] + 1)
		switch {
		case p > ratio*n:
			out.Set(w, Pos)
		case n > ratio*p:
			out.Set(w, Neg)
		}
	}
	return out
}
