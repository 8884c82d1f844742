package eval

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAccuracyPerfect(t *testing.T) {
	pred := []int{0, 0, 1, 1, 2}
	if got := Accuracy(pred, pred); got != 1 {
		t.Fatalf("Accuracy(x,x) = %v", got)
	}
}

func TestAccuracyPermutationInvariant(t *testing.T) {
	truth := []int{0, 0, 1, 1, 2, 2}
	pred := []int{2, 2, 0, 0, 1, 1} // relabeled perfect clustering
	if got := Accuracy(pred, truth); got != 1 {
		t.Fatalf("permuted accuracy = %v, want 1", got)
	}
}

func TestAccuracyKnownValue(t *testing.T) {
	truth := []int{0, 0, 0, 1, 1, 1}
	pred := []int{0, 0, 1, 1, 1, 1}
	// cluster 0 → class 0 (2 right), cluster 1 → class 1 (3 of 4).
	if got := Accuracy(pred, truth); math.Abs(got-5.0/6) > 1e-12 {
		t.Fatalf("Accuracy = %v, want 5/6", got)
	}
}

func TestAccuracyIgnoresUnlabeled(t *testing.T) {
	truth := []int{0, -1, 1, -1}
	pred := []int{0, 1, 1, 0}
	if got := Accuracy(pred, truth); got != 1 {
		t.Fatalf("Accuracy with unlabeled = %v", got)
	}
}

func TestAccuracyNoLabels(t *testing.T) {
	if got := Accuracy([]int{0, 1}, []int{-1, -1}); got != 0 {
		t.Fatalf("Accuracy with no labels = %v", got)
	}
}

func TestAccuracyLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Accuracy([]int{0}, []int{0, 1})
}

func TestAccuracyBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		pred := make([]int, n)
		truth := make([]int, n)
		for i := range pred {
			pred[i] = rng.Intn(3)
			truth[i] = rng.Intn(3)
		}
		a := Accuracy(pred, truth)
		return a >= 0 && a <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMajorityMapping(t *testing.T) {
	truth := []int{0, 0, 1}
	pred := []int{5, 5, 7}
	m := MajorityMapping(pred, truth)
	if m[5] != 0 || m[7] != 1 {
		t.Fatalf("MajorityMapping = %v", m)
	}
}

func TestMapClustersUnlabeledClusterKeepsID(t *testing.T) {
	truth := []int{0, -1}
	pred := []int{3, 9} // cluster 9 has no labeled member
	m := MajorityMapping(pred, truth)
	if _, mapped := m[9]; mapped || m[3] != 0 {
		t.Fatalf("MajorityMapping = %v, want cluster 3 on class 0 and cluster 9 left alone", m)
	}
}

func TestNMIPerfectIsOne(t *testing.T) {
	x := []int{0, 0, 1, 1, 2, 2}
	if got := NMI(x, x); math.Abs(got-1) > 1e-12 {
		t.Fatalf("NMI(x,x) = %v", got)
	}
}

func TestNMIPermutationInvariant(t *testing.T) {
	truth := []int{0, 0, 1, 1}
	pred := []int{1, 1, 0, 0}
	if got := NMI(pred, truth); math.Abs(got-1) > 1e-12 {
		t.Fatalf("NMI permuted = %v", got)
	}
}

func TestNMIIndependentIsZero(t *testing.T) {
	// pred splits orthogonally to truth → MI = 0.
	truth := []int{0, 0, 1, 1}
	pred := []int{0, 1, 0, 1}
	if got := NMI(pred, truth); math.Abs(got) > 1e-12 {
		t.Fatalf("independent NMI = %v", got)
	}
}

func TestNMISingleClusterIsZero(t *testing.T) {
	if got := NMI([]int{0, 0, 0}, []int{0, 1, 2}); got != 0 {
		t.Fatalf("degenerate NMI = %v", got)
	}
}

func TestNMIBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		pred := make([]int, n)
		truth := make([]int, n)
		for i := range pred {
			pred[i] = rng.Intn(4)
			truth[i] = rng.Intn(3)
		}
		v := NMI(pred, truth)
		return v >= 0 && v <= 1 && !math.IsNaN(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNMISymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		a := make([]int, n)
		b := make([]int, n)
		for i := range a {
			a[i] = rng.Intn(3)
			b[i] = rng.Intn(3)
		}
		return math.Abs(NMI(a, b)-NMI(b, a)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEvaluateBundle(t *testing.T) {
	x := []int{0, 1, 0, 1}
	m := Evaluate(x, x)
	if m.Accuracy != 1 || math.Abs(m.NMI-1) > 1e-12 {
		t.Fatalf("Evaluate = %+v", m)
	}
}

func TestPercent(t *testing.T) {
	if got := Percent(0.8187); got != "81.87" {
		t.Fatalf("Percent = %q", got)
	}
}

func TestARIIdentical(t *testing.T) {
	x := []int{0, 0, 1, 1, 2, 2}
	if got := AdjustedRandIndex(x, x); math.Abs(got-1) > 1e-12 {
		t.Fatalf("ARI(x,x) = %v", got)
	}
}

func TestARIPermutationInvariant(t *testing.T) {
	truth := []int{0, 0, 1, 1}
	pred := []int{7, 7, 3, 3}
	if got := AdjustedRandIndex(pred, truth); math.Abs(got-1) > 1e-12 {
		t.Fatalf("relabeled ARI = %v", got)
	}
}

func TestARIRandomNearZero(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 2000
	pred := make([]int, n)
	truth := make([]int, n)
	for i := range pred {
		pred[i] = rng.Intn(3)
		truth[i] = rng.Intn(3)
	}
	if got := AdjustedRandIndex(pred, truth); math.Abs(got) > 0.05 {
		t.Fatalf("random ARI = %v, want ≈ 0", got)
	}
}

func TestARIBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(30)
		pred := make([]int, n)
		truth := make([]int, n)
		for i := range pred {
			pred[i] = rng.Intn(3)
			truth[i] = rng.Intn(3)
		}
		v := AdjustedRandIndex(pred, truth)
		return v <= 1+1e-12 && !math.IsNaN(v) && !math.IsInf(v, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestARIIgnoresUnlabeled(t *testing.T) {
	truth := []int{0, 0, 1, 1, -1, -1}
	pred := []int{5, 5, 6, 6, 0, 1}
	if got := AdjustedRandIndex(pred, truth); math.Abs(got-1) > 1e-12 {
		t.Fatalf("ARI with unlabeled = %v", got)
	}
}

func TestARIDegenerate(t *testing.T) {
	if AdjustedRandIndex([]int{0}, []int{0}) != 0 {
		t.Fatal("single item should give 0")
	}
	// Both partitions a single cluster: denominator vanishes → 0.
	if AdjustedRandIndex([]int{0, 0, 0}, []int{1, 1, 1}) != 0 {
		t.Fatal("degenerate partitions should give 0")
	}
}
