package lexicon

import (
	"math"
	"testing"

	"triclust/internal/text"
)

func vocabOf(words ...string) *text.Vocabulary {
	v := text.NewVocabulary()
	for _, w := range words {
		v.AddWord(w)
	}
	return v
}

func TestBuiltinSanity(t *testing.T) {
	l := Builtin()
	if c, ok := l.Class("love"); !ok || c != Pos {
		t.Fatal("love should be Pos")
	}
	if c, ok := l.Class("evil"); !ok || c != Neg {
		t.Fatal("evil should be Neg")
	}
	if _, ok := l.Class("gmo"); ok {
		t.Fatal("topic word should be unlisted")
	}
	if l.Len() == 0 {
		t.Fatal("builtin empty")
	}
}

func TestSetAndWords(t *testing.T) {
	l := New()
	l.Set("b", Pos)
	l.Set("a", Pos)
	l.Set("z", Neg)
	pos := l.Words(Pos)
	if len(pos) != 2 || pos[0] != "a" || pos[1] != "b" {
		t.Fatalf("Words(Pos) = %v", pos)
	}
	if len(l.Words(Neg)) != 1 {
		t.Fatalf("Words(Neg) = %v", l.Words(Neg))
	}
}

func TestSetRejectsNeutral(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New().Set("meh", Neu)
}

func TestMerge(t *testing.T) {
	a := New()
	a.Set("w", Pos)
	b := New()
	b.Set("w", Neg)
	b.Set("v", Pos)
	a.Merge(b)
	if c, _ := a.Class("w"); c != Neg {
		t.Fatal("Merge did not overwrite")
	}
	if _, ok := a.Class("v"); !ok {
		t.Fatal("Merge did not add")
	}
}

func TestSf0RowsAreDistributions(t *testing.T) {
	l := Builtin()
	v := vocabOf("love", "evil", "gmo")
	s := l.Sf0(v, 3, 0.8)
	if s.Rows() != 3 || s.Cols() != 3 {
		t.Fatalf("Sf0 dims %dx%d", s.Rows(), s.Cols())
	}
	for i := 0; i < 3; i++ {
		var sum float64
		for _, x := range s.Row(i) {
			if x < 0 {
				t.Fatalf("negative prior at row %d", i)
			}
			sum += x
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
	if s.At(0, Pos) != 0.8 {
		t.Fatalf("love prior = %v", s.At(0, Pos))
	}
	if s.At(1, Neg) != 0.8 {
		t.Fatalf("evil prior = %v", s.At(1, Neg))
	}
	if math.Abs(s.At(2, 0)-1.0/3) > 1e-12 {
		t.Fatalf("unlisted word prior = %v, want uniform", s.At(2, 0))
	}
}

func TestSf0K2(t *testing.T) {
	l := Builtin()
	v := vocabOf("love", "gmo")
	s := l.Sf0(v, 2, 0.9)
	if math.Abs(s.At(0, Pos)-0.9) > 1e-12 || math.Abs(s.At(0, Neg)-0.1) > 1e-12 {
		t.Fatalf("k=2 row = %v", s.Row(0))
	}
	if s.At(1, 0) != 0.5 {
		t.Fatalf("k=2 unlisted = %v", s.At(1, 0))
	}
}

func TestSf0BadHitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Builtin().Sf0(vocabOf("x"), 3, 0.1)
}

func TestInduceSeparatesClasses(t *testing.T) {
	docs := [][]string{
		{"yeson37", "label", "health"},
		{"yeson37", "health"},
		{"yeson37", "label"},
		{"noprop37", "cost", "farmer"},
		{"noprop37", "farmer"},
		{"noprop37", "cost"},
		{"shared", "words"}, // neutral doc skipped
	}
	labels := []int{Pos, Pos, Pos, Neg, Neg, Neg, Neu}
	l := Induce(docs, labels, 2, 2)
	if c, ok := l.Class("yeson37"); !ok || c != Pos {
		t.Fatalf("yeson37: class=%v ok=%v", c, ok)
	}
	if c, ok := l.Class("noprop37"); !ok || c != Neg {
		t.Fatalf("noprop37: class=%v ok=%v", c, ok)
	}
	if _, ok := l.Class("shared"); ok {
		t.Fatal("neutral doc word listed")
	}
}

func TestInduceMinCount(t *testing.T) {
	docs := [][]string{{"rareword"}, {"x"}}
	labels := []int{Pos, Neg}
	l := Induce(docs, labels, 5, 2)
	if _, ok := l.Class("rareword"); ok {
		t.Fatal("minCount ignored")
	}
}

func TestInduceAmbiguousWordSkipped(t *testing.T) {
	docs := [][]string{
		{"both"}, {"both"},
		{"both"}, {"both"},
	}
	labels := []int{Pos, Pos, Neg, Neg}
	l := Induce(docs, labels, 1, 1.5)
	if _, ok := l.Class("both"); ok {
		t.Fatal("balanced word should be unlisted")
	}
}

func TestInducePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Induce([][]string{{"x"}}, []int{Pos, Neg}, 1, 2)
}
