package text

import (
	"math"
	"reflect"
	"testing"
)

func defTok() *Tokenizer { return NewTokenizer(DefaultTokenizerOptions()) }

func TestTokenizeBasic(t *testing.T) {
	got := defTok().Tokenize("Support the #California #GMO Labeling Ballot Initiative #prop37")
	want := []string{"support", "california", "gmo", "labeling", "ballot", "initiative", "prop37"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
}

func TestTokenizeDropsURLsAndMentions(t *testing.T) {
	got := defTok().Tokenize("RT @alice check https://example.com/x and www.foo.org now!")
	want := []string{"check"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
}

func TestTokenizeKeepMentions(t *testing.T) {
	opts := DefaultTokenizerOptions()
	opts.KeepMentions = true
	got := NewTokenizer(opts).Tokenize("@Alice hello")
	want := []string{"alice", "hello"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
}

func TestTokenizeDropHashtags(t *testing.T) {
	opts := DefaultTokenizerOptions()
	opts.KeepHashtags = false
	got := NewTokenizer(opts).Tokenize("vote #prop37 today")
	want := []string{"vote", "today"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
}

func TestTokenizePunctuationTrim(t *testing.T) {
	got := defTok().Tokenize("Monsanto is pure evil!!! :)")
	want := []string{"monsanto", "pure", "evil"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
}

func TestTokenizeStopwordsRetainedWhenDisabled(t *testing.T) {
	opts := DefaultTokenizerOptions()
	opts.RemoveStopwords = false
	got := NewTokenizer(opts).Tokenize("this is gmo")
	want := []string{"this", "is", "gmo"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
}

func TestTokenizeMinLen(t *testing.T) {
	got := defTok().Tokenize("x yz abc")
	want := []string{"yz", "abc"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
}

func TestTokenizeEmpty(t *testing.T) {
	if got := defTok().Tokenize("   "); len(got) != 0 {
		t.Fatalf("Tokenize(blank) = %v", got)
	}
}

func TestTokenizeNumericHashtag(t *testing.T) {
	got := defTok().Tokenize("#37 matters")
	want := []string{"37", "matters"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
}

func TestIsStopword(t *testing.T) {
	if !IsStopword("the") || IsStopword("gmo") {
		t.Fatal("IsStopword misclassifies")
	}
}

func TestVocabularyAddAndLookup(t *testing.T) {
	v := NewVocabulary()
	a := v.AddWord("apple")
	b := v.AddWord("banana")
	if a == b {
		t.Fatal("distinct words share an index")
	}
	if v.AddWord("apple") != a {
		t.Fatal("re-adding changed index")
	}
	if v.ID("apple") != a || v.ID("zzz") != -1 {
		t.Fatal("ID lookup wrong")
	}
	if v.Word(b) != "banana" {
		t.Fatal("Word lookup wrong")
	}
	if v.Len() != 2 {
		t.Fatalf("Len = %d", v.Len())
	}
}

func TestBuildVocabularyMinDF(t *testing.T) {
	docs := [][]string{
		{"common", "rare"},
		{"common", "common"}, // duplicate within doc counts once for DF
		{"common", "other"},
	}
	v := BuildVocabulary(docs, 2)
	if v.ID("common") < 0 {
		t.Fatal("common dropped")
	}
	if v.ID("rare") >= 0 || v.ID("other") >= 0 {
		t.Fatal("minDF not applied")
	}
}

func TestBuildVocabularyDeterministicOrder(t *testing.T) {
	docs := [][]string{{"b", "a", "c"}}
	v := BuildVocabulary(docs, 1)
	if !reflect.DeepEqual(v.Words(), []string{"a", "b", "c"}) {
		t.Fatalf("Words = %v", v.Words())
	}
}

func TestDocFeatureMatrixTF(t *testing.T) {
	v := NewVocabulary()
	v.AddWord("gmo")
	v.AddWord("label")
	docs := [][]string{{"gmo", "gmo", "label"}, {"unknown"}}
	x := DocFeatureMatrix(docs, v, TF)
	if x.Rows() != 2 || x.Cols() != 2 {
		t.Fatalf("dims %dx%d", x.Rows(), x.Cols())
	}
	if x.At(0, 0) != 2 || x.At(0, 1) != 1 || x.RowNNZ(1) != 0 {
		t.Fatalf("TF values wrong: %v", x.ToDense())
	}
}

func TestDocFeatureMatrixBinary(t *testing.T) {
	v := NewVocabulary()
	v.AddWord("gmo")
	docs := [][]string{{"gmo", "gmo", "gmo"}}
	x := DocFeatureMatrix(docs, v, Binary)
	if x.At(0, 0) != 1 {
		t.Fatalf("Binary value = %v", x.At(0, 0))
	}
}

func TestDocFeatureMatrixTFIDF(t *testing.T) {
	v := NewVocabulary()
	v.AddWord("everywhere")
	v.AddWord("once")
	docs := [][]string{
		{"everywhere", "once"},
		{"everywhere"},
		{"everywhere"},
	}
	x := DocFeatureMatrix(docs, v, TFIDF)
	// "once" is rarer so its weight in doc 0 must exceed "everywhere"'s.
	if !(x.At(0, 1) > x.At(0, 0)) {
		t.Fatalf("IDF ordering wrong: once=%v everywhere=%v", x.At(0, 1), x.At(0, 0))
	}
}

func TestInverseDocumentFrequencyValues(t *testing.T) {
	v := NewVocabulary()
	v.AddWord("w")
	docs := [][]string{{"w"}, {"w"}}
	tf := DocFeatureMatrix(docs, v, TF)
	idf := InverseDocumentFrequencyInto(nil, tf)
	want := math.Log(3.0/3.0) + 1
	if math.Abs(idf[0]-want) > 1e-12 {
		t.Fatalf("idf = %v, want %v", idf[0], want)
	}
}

func TestUserFeatureMatrixAggregation(t *testing.T) {
	v := NewVocabulary()
	v.AddWord("gmo")
	v.AddWord("tax")
	docs := [][]string{{"gmo"}, {"gmo", "tax"}, {"tax"}}
	xp := DocFeatureMatrix(docs, v, TF)
	owner := []int{0, 0, 1}
	xu := new(FeatureScratch).UserFeatureMatrixInto(nil, xp, owner, 2)
	if xu.At(0, 0) != 2 || xu.At(0, 1) != 1 || xu.At(1, 1) != 1 || xu.At(1, 0) != 0 {
		t.Fatalf("Xu wrong: %v", xu.ToDense())
	}
}

func TestUserFeatureMatrixSkipsUnowned(t *testing.T) {
	v := NewVocabulary()
	v.AddWord("gmo")
	xp := DocFeatureMatrix([][]string{{"gmo"}}, v, TF)
	xu := new(FeatureScratch).UserFeatureMatrixInto(nil, xp, []int{-1}, 1)
	if xu.NNZ() != 0 {
		t.Fatal("unowned tweet aggregated")
	}
}

func TestUserFeatureMatrixLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	v := NewVocabulary()
	v.AddWord("x")
	xp := DocFeatureMatrix([][]string{{"x"}}, v, TF)
	new(FeatureScratch).UserFeatureMatrixInto(nil, xp, []int{0, 1}, 2)
}

func TestStem(t *testing.T) {
	for in, want := range map[string]string{
		"farmers":  "farmer",
		"labeling": "label",
		"crops":    "crop",
		"parties":  "party",
		"walked":   "walk",
		"quickly":  "quick",
		"glass":    "glass", // -ss protected
		"virus":    "virus", // -us protected
		"gmo":      "gmo",   // too short to strip
		"feed":     "feed",  // -eed protected ('e' before "ed")
	} {
		if got := Stem(in); got != want {
			t.Fatalf("Stem(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestTokenizeWithStemming(t *testing.T) {
	opts := DefaultTokenizerOptions()
	opts.Stem = true
	got := NewTokenizer(opts).Tokenize("farmers labeling crops")
	want := []string{"farmer", "label", "crop"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
}

func TestStemNeverBelowThreeRunes(t *testing.T) {
	for _, in := range []string{"as", "is", "bed", "its", "gas"} {
		if got := Stem(in); len(got) < len(in) && len(got) < 3 {
			t.Fatalf("Stem(%q) = %q too short", in, got)
		}
	}
}
