package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewDenseZeroed(t *testing.T) {
	m := NewDense(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("dims = %dx%d, want 3x4", m.Rows(), m.Cols())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("At(%d,%d) = %v, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestNewDensePanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative dims")
		}
	}()
	NewDense(-1, 2)
}

func TestNewDenseDataLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad data length")
		}
	}()
	NewDenseData(2, 2, []float64{1, 2, 3})
}

func TestSetAtRoundTrip(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(1, 2, 7.5)
	if got := m.At(1, 2); got != 7.5 {
		t.Fatalf("At = %v, want 7.5", got)
	}
	if got := m.Row(1)[2]; got != 7.5 {
		t.Fatalf("Row slice = %v, want 7.5", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone is not deep")
	}
}

func TestAddSubScale(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	sum := NewDense(2, 2)
	sum.Add(a, b)
	if !Equal(sum, FromRows([][]float64{{6, 8}, {10, 12}}), 0) {
		t.Fatalf("Add = %v", sum)
	}
	diff := NewDense(2, 2)
	diff.Sub(b, a)
	if !Equal(diff, FromRows([][]float64{{4, 4}, {4, 4}}), 0) {
		t.Fatalf("Sub = %v", diff)
	}
	sc := NewDense(2, 2)
	sc.Scale(2, a)
	if !Equal(sc, FromRows([][]float64{{2, 4}, {6, 8}}), 0) {
		t.Fatalf("Scale = %v", sc)
	}
	axpy := NewDense(2, 2)
	axpy.AddScaled(a, -1, a)
	if axpy.FrobeniusSq() != 0 {
		t.Fatalf("AddScaled(a,-1,a) = %v, want zero", axpy)
	}
}

func TestMulKnown(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	b := FromRows([][]float64{{7, 8}, {9, 10}, {11, 12}})
	got := ProductInto(nil, a, b)
	want := FromRows([][]float64{{58, 64}, {139, 154}})
	if !Equal(got, want, 1e-12) {
		t.Fatalf("Product = %v, want %v", got, want)
	}
}

func TestMulDimensionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected dimension panic")
		}
	}()
	ProductInto(nil, NewDense(2, 3), NewDense(2, 3))
}

func TestMulATBMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := RandomNonNegative(rng, 7, 3, 0, 1)
	b := RandomNonNegative(rng, 7, 2, 0, 1)
	got := NewDense(3, 2)
	got.MulATB(a, b)
	want := ProductInto(nil, a.T(), b)
	if !Equal(got, want, 1e-12) {
		t.Fatalf("MulATB mismatch:\n%v\n%v", got, want)
	}
}

func TestMulABTMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := RandomNonNegative(rng, 5, 4, 0, 1)
	b := RandomNonNegative(rng, 6, 4, 0, 1)
	got := NewDense(5, 6)
	got.MulABT(a, b)
	want := ProductInto(nil, a, b.T())
	if !Equal(got, want, 1e-12) {
		t.Fatalf("MulABT mismatch")
	}
}

func TestGramSymmetricPSD(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := RandomNonNegative(rng, 10, 3, 0, 1)
	g := GramInto(nil, a)
	for i := 0; i < 3; i++ {
		if g.At(i, i) < 0 {
			t.Fatalf("Gram diagonal negative: %v", g.At(i, i))
		}
		for j := 0; j < 3; j++ {
			if !almostEq(g.At(i, j), g.At(j, i), 1e-12) {
				t.Fatalf("Gram not symmetric at (%d,%d)", i, j)
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := RandomNonNegative(rng, 4, 6, 0, 1)
	if !Equal(a.T().T(), a, 0) {
		t.Fatal("T().T() != identity")
	}
}

func TestTraceAndFrobenius(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	if got := m.Trace(); got != 5 {
		t.Fatalf("Trace = %v, want 5", got)
	}
	if got := m.FrobeniusSq(); got != 30 {
		t.Fatalf("FrobeniusSq = %v, want 30", got)
	}
	if !almostEq(m.Frobenius(), math.Sqrt(30), 1e-12) {
		t.Fatalf("Frobenius = %v", m.Frobenius())
	}
}

func TestTraceNonSquarePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDense(2, 3).Trace()
}

func TestDotMatchesTraceIdentity(t *testing.T) {
	// ⟨A,B⟩ = tr(AᵀB).
	rng := rand.New(rand.NewSource(5))
	a := RandomNonNegative(rng, 4, 3, 0, 1)
	b := RandomNonNegative(rng, 4, 3, 0, 1)
	atb := NewDense(3, 3)
	atb.MulATB(a, b)
	if !almostEq(Dot(a, b), atb.Trace(), 1e-10) {
		t.Fatalf("Dot = %v, tr(AᵀB) = %v", Dot(a, b), atb.Trace())
	}
}

func TestDiffFrobeniusSq(t *testing.T) {
	a := FromRows([][]float64{{1, 2}})
	b := FromRows([][]float64{{4, 6}})
	if got := DiffFrobeniusSq(a, b); got != 25 {
		t.Fatalf("DiffFrobeniusSq = %v, want 25", got)
	}
}

func TestSplitPosNeg(t *testing.T) {
	m := FromRows([][]float64{{3, -2}, {0, -5}})
	pos, neg := NewDense(2, 2), NewDense(2, 2)
	SplitPosNegInto(pos, neg, m)
	if !Equal(pos, FromRows([][]float64{{3, 0}, {0, 0}}), 0) {
		t.Fatalf("pos = %v", pos)
	}
	if !Equal(neg, FromRows([][]float64{{0, 2}, {0, 5}}), 0) {
		t.Fatalf("neg = %v", neg)
	}
	// Reconstruction m = pos − neg.
	rec := NewDense(2, 2)
	rec.Sub(pos, neg)
	if !Equal(rec, m, 0) {
		t.Fatal("pos − neg != m")
	}
}

func TestSplitPosNegProperty(t *testing.T) {
	f := func(vals [6]float64) bool {
		m := NewDenseData(2, 3, append([]float64(nil), vals[:]...))
		pos, neg := NewDense(2, 3), NewDense(2, 3)
		SplitPosNegInto(pos, neg, m)
		for i := range pos.Data() {
			if pos.Data()[i] < 0 || neg.Data()[i] < 0 {
				return false
			}
			if !almostEq(pos.Data()[i]-neg.Data()[i], m.Data()[i], 1e-9*math.Abs(m.Data()[i])+1e-12) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMulUpdateFixedPoint(t *testing.T) {
	// When numer == denom the update must leave dst (nearly) unchanged.
	rng := rand.New(rand.NewSource(6))
	dst := RandomNonNegative(rng, 3, 3, 0.1, 1)
	orig := dst.Clone()
	n := RandomNonNegative(rng, 3, 3, 0.5, 1)
	MulUpdate(dst, n, n)
	if !Equal(dst, orig, 1e-6) {
		t.Fatalf("MulUpdate(n,n) moved dst:\n%v\n%v", dst, orig)
	}
}

func TestMulUpdateDirection(t *testing.T) {
	dst := FromRows([][]float64{{1}})
	MulUpdate(dst, FromRows([][]float64{{4}}), FromRows([][]float64{{1}}))
	if !almostEq(dst.At(0, 0), 2, 1e-6) {
		t.Fatalf("grow update = %v, want 2", dst.At(0, 0))
	}
	dst = FromRows([][]float64{{1}})
	MulUpdate(dst, FromRows([][]float64{{1}}), FromRows([][]float64{{4}}))
	if !almostEq(dst.At(0, 0), 0.5, 1e-6) {
		t.Fatalf("shrink update = %v, want 0.5", dst.At(0, 0))
	}
}

func TestMulUpdateGuardsZeroDenominator(t *testing.T) {
	dst := FromRows([][]float64{{1}})
	MulUpdate(dst, FromRows([][]float64{{1}}), FromRows([][]float64{{0}}))
	if math.IsNaN(dst.At(0, 0)) || math.IsInf(dst.At(0, 0), 0) {
		t.Fatalf("update produced non-finite %v", dst.At(0, 0))
	}
}

func TestMulUpdateClampsNegativeInputs(t *testing.T) {
	dst := FromRows([][]float64{{2}})
	MulUpdate(dst, FromRows([][]float64{{-3}}), FromRows([][]float64{{1}}))
	if dst.At(0, 0) != 0 {
		t.Fatalf("negative numerator should zero the entry, got %v", dst.At(0, 0))
	}
}

func TestMulUpdateNonNegativityProperty(t *testing.T) {
	f := func(d, n, m [4]float64) bool {
		dst := NewDenseData(2, 2, []float64{math.Abs(d[0]), math.Abs(d[1]), math.Abs(d[2]), math.Abs(d[3])})
		numer := NewDenseData(2, 2, append([]float64(nil), n[:]...))
		denom := NewDenseData(2, 2, append([]float64(nil), m[:]...))
		MulUpdate(dst, numer, denom)
		for _, v := range dst.Data() {
			if v < 0 || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRowArgMax(t *testing.T) {
	m := FromRows([][]float64{{0.1, 0.9, 0.0}, {0.5, 0.5, 0.4}, {0, 0, 1}})
	got := m.RowArgMax()
	want := []int{1, 0, 2} // ties resolve to lowest index
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("RowArgMax = %v, want %v", got, want)
		}
	}
}

func TestNormalizeRowsL1(t *testing.T) {
	m := FromRows([][]float64{{2, 2}, {0, 0}, {3, 1}})
	m.NormalizeRowsL1()
	for i := 0; i < m.Rows(); i++ {
		var s float64
		for _, v := range m.Row(i) {
			s += v
		}
		if !almostEq(s, 1, 1e-12) {
			t.Fatalf("row %d sums to %v", i, s)
		}
	}
	if !almostEq(m.At(1, 0), 0.5, 0) {
		t.Fatalf("zero row should become uniform, got %v", m.Row(1))
	}
}

func TestClampNonNegative(t *testing.T) {
	m := FromRows([][]float64{{-1, 2}, {3, -4}})
	m.ClampNonNegative()
	if !Equal(m, FromRows([][]float64{{0, 2}, {3, 0}}), 0) {
		t.Fatalf("ClampNonNegative = %v", m)
	}
}

func TestIsFinite(t *testing.T) {
	m := FromRows([][]float64{{1, 2}})
	if !m.IsFinite() {
		t.Fatal("finite matrix reported non-finite")
	}
	m.Set(0, 0, math.NaN())
	if m.IsFinite() {
		t.Fatal("NaN not detected")
	}
	m.Set(0, 0, math.Inf(1))
	if m.IsFinite() {
		t.Fatal("Inf not detected")
	}
}

func TestIdentityAndDiag(t *testing.T) {
	i3 := Identity(3)
	rng := rand.New(rand.NewSource(7))
	a := RandomNonNegative(rng, 3, 3, 0, 1)
	if !Equal(ProductInto(nil, i3, a), a, 1e-12) || !Equal(ProductInto(nil, a, i3), a, 1e-12) {
		t.Fatal("identity is not multiplicative identity")
	}
	if i3.At(1, 1) != 1 || i3.At(0, 1) != 0 {
		t.Fatalf("Identity wrong: %v", i3)
	}
}

func TestRandomNonNegativeStrictlyPositive(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := RandomNonNegative(rng, 50, 3, 0, 1)
	for _, v := range m.Data() {
		if v <= 0 {
			t.Fatalf("entry %v not strictly positive", v)
		}
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestFromRowsEmpty(t *testing.T) {
	m := FromRows(nil)
	if m.Rows() != 0 || m.Cols() != 0 {
		t.Fatalf("empty FromRows = %dx%d", m.Rows(), m.Cols())
	}
}

func TestMulAssociativityProperty(t *testing.T) {
	// (AB)C == A(BC) for random small matrices.
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		a := RandomNonNegative(rng, 4, 3, 0, 1)
		b := RandomNonNegative(rng, 3, 5, 0, 1)
		c := RandomNonNegative(rng, 5, 2, 0, 1)
		left := ProductInto(nil, ProductInto(nil, a, b), c)
		right := ProductInto(nil, a, ProductInto(nil, b, c))
		if !Equal(left, right, 1e-10) {
			t.Fatalf("associativity violated on trial %d", trial)
		}
	}
}

func TestPerturbPositive(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	m := NewDense(3, 3) // all zero
	PerturbPositive(rng, m, 0.1)
	for _, v := range m.Data() {
		if v < 0 || v > 0.1 {
			t.Fatalf("perturbed entry %v out of (0, 0.1]", v)
		}
	}
}

func TestStringSmallAndLarge(t *testing.T) {
	small := FromRows([][]float64{{1, 2}})
	if s := small.String(); len(s) == 0 {
		t.Fatal("empty String for small matrix")
	}
	large := NewDense(100, 100)
	if s := large.String(); s != "Dense 100x100" {
		t.Fatalf("large String = %q", s)
	}
}

func TestCopyFromAndDims(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := NewDense(2, 2)
	b.CopyFrom(a)
	if !Equal(a, b, 0) {
		t.Fatal("CopyFrom mismatch")
	}
	b.Set(0, 0, 9)
	if a.At(0, 0) != 1 {
		t.Fatal("CopyFrom aliased storage")
	}
	if !a.Dims(2, 2) || a.Dims(2, 3) {
		t.Fatal("Dims wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for shape mismatch")
		}
	}()
	NewDense(1, 2).CopyFrom(a)
}

func TestEqualShapeMismatch(t *testing.T) {
	if Equal(NewDense(1, 2), NewDense(2, 1), 1) {
		t.Fatal("different shapes reported equal")
	}
}

func TestRowArgMaxZeroCols(t *testing.T) {
	m := NewDense(2, 0)
	got := m.RowArgMax()
	if got[0] != -1 || got[1] != -1 {
		t.Fatalf("RowArgMax on 0-col = %v", got)
	}
}

func TestNormalizeRowsL1ZeroCols(t *testing.T) {
	m := NewDense(2, 0)
	m.NormalizeRowsL1() // must not panic
}

func TestRandomNonNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	RandomNonNegative(rand.New(rand.NewSource(1)), 2, 2, -1, 1)
}

func TestMulUpdateShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MulUpdate(NewDense(1, 1), NewDense(1, 2), NewDense(1, 2))
}
