package text

import "testing"

func TestVocabBuilderIncrementalMatchesBatch(t *testing.T) {
	docs := [][]string{
		{"apple", "banana", "apple"},
		{"banana", "cherry"},
		{"cherry", "banana", "durian"},
		{"apple"},
	}
	want := BuildVocabulary(docs, 2)

	b := NewVocabBuilder()
	b.Add(docs[0])
	b.Add(docs[1], docs[2])
	b.Add(docs[3])
	got := b.Build(2)

	if got.Len() != want.Len() {
		t.Fatalf("incremental vocab has %d words, batch has %d", got.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		if got.Word(i) != want.Word(i) {
			t.Fatalf("word %d: incremental %q, batch %q", i, got.Word(i), want.Word(i))
		}
	}
	if b.Docs() != len(docs) {
		t.Fatalf("Docs() = %d, want %d", b.Docs(), len(docs))
	}
	if len(b.df) != 4 {
		t.Fatalf("%d distinct tokens counted, want 4", len(b.df))
	}
}

func TestVocabBuilderOrderIndependent(t *testing.T) {
	a := NewVocabBuilder()
	a.Add([]string{"x", "y"}, []string{"y", "z"})
	b := NewVocabBuilder()
	b.Add([]string{"y", "z"}, []string{"x", "y"})
	va, vb := a.Build(1), b.Build(1)
	if va.Len() != vb.Len() {
		t.Fatalf("order-dependent sizes: %d vs %d", va.Len(), vb.Len())
	}
	for i := 0; i < va.Len(); i++ {
		if va.Word(i) != vb.Word(i) {
			t.Fatalf("order-dependent index %d: %q vs %q", i, va.Word(i), vb.Word(i))
		}
	}
}

func TestVocabBuilderReusableAfterBuild(t *testing.T) {
	b := NewVocabBuilder()
	b.Add([]string{"one"})
	if v := b.Build(1); v.Len() != 1 {
		t.Fatalf("first build has %d words", v.Len())
	}
	b.Add([]string{"two"})
	if v := b.Build(1); v.Len() != 2 {
		t.Fatalf("second build has %d words", v.Len())
	}
}
