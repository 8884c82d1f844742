package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"triclust/internal/mat"
	"triclust/internal/par"
)

func randomCSR(rng *rand.Rand, rows, cols int, density float64) *CSR {
	b := NewCOO(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				b.Add(i, j, rng.Float64()*2)
			}
		}
	}
	return b.ToCSR()
}

func TestCOOToCSRBasic(t *testing.T) {
	b := NewCOO(2, 3)
	b.Add(0, 2, 1.5)
	b.Add(1, 0, 2.0)
	b.Add(0, 0, 3.0)
	m := b.ToCSR()
	if m.NNZ() != 3 {
		t.Fatalf("NNZ = %d, want 3", m.NNZ())
	}
	if m.At(0, 0) != 3 || m.At(0, 2) != 1.5 || m.At(1, 0) != 2 || m.At(0, 1) != 0 {
		t.Fatalf("values wrong: %v %v %v %v", m.At(0, 0), m.At(0, 2), m.At(1, 0), m.At(0, 1))
	}
}

func TestCOODuplicatesSummed(t *testing.T) {
	b := NewCOO(1, 1)
	b.Add(0, 0, 1)
	b.Add(0, 0, 2)
	b.Add(0, 0, 0.5)
	m := b.ToCSR()
	if m.NNZ() != 1 || m.At(0, 0) != 3.5 {
		t.Fatalf("dup sum: nnz=%d v=%v", m.NNZ(), m.At(0, 0))
	}
}

func TestCOOCancellationDropped(t *testing.T) {
	b := NewCOO(1, 2)
	b.Add(0, 0, 1)
	b.Add(0, 0, -1)
	b.Add(0, 1, 2)
	m := b.ToCSR()
	if m.NNZ() != 1 {
		t.Fatalf("cancelled entry retained: nnz=%d", m.NNZ())
	}
}

func TestCOOZeroSkipped(t *testing.T) {
	b := NewCOO(1, 1)
	b.Add(0, 0, 0)
	if len(b.vs) != 0 {
		t.Fatal("zero value stored")
	}
}

func TestCOOOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCOO(2, 2).Add(2, 0, 1)
}

func TestAtOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Zeros(2, 2).At(0, 5)
}

func TestDenseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randomCSR(rng, 13, 7, 0.3)
	d := m.ToDense()
	for i := 0; i < 13; i++ {
		for j := 0; j < 7; j++ {
			if m.At(i, j) != d.At(i, j) {
				t.Fatalf("round trip mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestMulDenseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomCSR(rng, 11, 9, 0.25)
	b := mat.RandomNonNegative(rng, 9, 3, 0, 1)
	got := a.MulDense(b)
	want := mat.ProductInto(nil, a.ToDense(), b)
	if !mat.Equal(got, want, 1e-10) {
		t.Fatal("MulDense mismatch vs dense reference")
	}
}

func TestMulDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Zeros(3, 4).MulDense(mat.NewDense(5, 2))
}

func TestTransposeMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randomCSR(rng, 8, 12, 0.2)
	got := a.T().ToDense()
	want := a.ToDense().T()
	if !mat.Equal(got, want, 0) {
		t.Fatal("transpose mismatch")
	}
}

func TestTransposeInvolutionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomCSR(rng, 1+rng.Intn(10), 1+rng.Intn(10), 0.3)
		return mat.Equal(a.T().T().ToDense(), a.ToDense(), 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRowColSums(t *testing.T) {
	m := FromDenseRows([][]float64{{1, 2, 0}, {0, 3, 4}})
	rs := m.RowSums()
	if rs[0] != 3 || rs[1] != 7 {
		t.Fatalf("RowSums = %v", rs)
	}
	cs := m.ColSums()
	if cs[0] != 1 || cs[1] != 5 || cs[2] != 4 {
		t.Fatalf("ColSums = %v", cs)
	}
}

func TestFrobeniusSq(t *testing.T) {
	m := FromDenseRows([][]float64{{3, 4}})
	if m.FrobeniusSq() != 25 {
		t.Fatalf("FrobeniusSq = %v", m.FrobeniusSq())
	}
}

func TestResidualThreeFactor(t *testing.T) {
	// Compare against explicit dense computation ||X − U C Vᵀ||².
	rng := rand.New(rand.NewSource(5))
	x := randomCSR(rng, 9, 7, 0.3)
	u := mat.RandomNonNegative(rng, 9, 3, 0, 1)
	c := mat.RandomNonNegative(rng, 3, 3, 0, 1)
	v := mat.RandomNonNegative(rng, 7, 3, 0, 1)
	got := x.ResidualFrobeniusSqWS(x.FrobeniusSq(), u, c, v, nil)

	approx := mat.NewDense(9, 7)
	approx.MulABT(mat.ProductInto(nil, u, c), v)
	want := mat.DiffFrobeniusSq(x.ToDense(), approx)
	if math.Abs(got-want) > 1e-8*(1+want) {
		t.Fatalf("residual = %v, want %v", got, want)
	}
}

func TestResidualTwoFactor(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := randomCSR(rng, 6, 8, 0.4)
	u := mat.RandomNonNegative(rng, 6, 2, 0, 1)
	v := mat.RandomNonNegative(rng, 8, 2, 0, 1)
	got := x.ResidualFrobeniusSqWS(x.FrobeniusSq(), u, nil, v, nil)
	approx := mat.NewDense(6, 8)
	approx.MulABT(u, v)
	want := mat.DiffFrobeniusSq(x.ToDense(), approx)
	if math.Abs(got-want) > 1e-8*(1+want) {
		t.Fatalf("residual = %v, want %v", got, want)
	}
}

func TestResidualNonNegativeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := randomCSR(rng, 5, 5, 0.4)
		u := mat.RandomNonNegative(rng, 5, 2, 0, 1)
		v := mat.RandomNonNegative(rng, 5, 2, 0, 1)
		return x.ResidualFrobeniusSqWS(x.FrobeniusSq(), u, nil, v, nil) > -1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestScaleRowsCols(t *testing.T) {
	m := FromDenseRows([][]float64{{1, 2}, {3, 4}})
	r := m.ScaleRows([]float64{2, 0.5})
	if r.At(0, 1) != 4 || r.At(1, 0) != 1.5 {
		t.Fatalf("ScaleRows wrong: %v %v", r.At(0, 1), r.At(1, 0))
	}
	c := FromDenseRows([][]float64{{1, 2}, {3, 4}})
	c.ScaleColsInPlace([]float64{10, 0})
	if c.At(0, 0) != 10 || c.At(1, 1) != 0 {
		t.Fatalf("ScaleColsInPlace wrong: %v %v", c.At(0, 0), c.At(1, 1))
	}
	// Original untouched.
	if m.At(0, 0) != 1 {
		t.Fatal("ScaleRows mutated receiver")
	}
}

func TestDegreesAndLaplacian(t *testing.T) {
	// Path graph 0-1-2 with unit weights.
	g := FromDenseRows([][]float64{
		{0, 1, 0},
		{1, 0, 1},
		{0, 1, 0},
	})
	deg := Degrees(g)
	if deg[0] != 1 || deg[1] != 2 || deg[2] != 1 {
		t.Fatalf("Degrees = %v", deg)
	}
	s := mat.FromRows([][]float64{{1}, {0}, {1}})
	// tr(SᵀLS) = ½ ΣG(i,j)(s_i−s_j)² = ½(1+1+1+1) = 2.
	if got := GraphRegularizationWS(g, nil, s, nil); math.Abs(got-2) > 1e-12 {
		t.Fatalf("GraphRegularizationWS = %v, want 2", got)
	}
	// Constant vector is in the Laplacian null space.
	ones := mat.FromRows([][]float64{{1}, {1}, {1}})
	if got := GraphRegularizationWS(g, nil, ones, nil); math.Abs(got) > 1e-12 {
		t.Fatalf("L·1 should vanish, got %v", got)
	}
}

func TestGraphRegularizationMatchesPairwiseSum(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(5)
		g := randomCSR(rng, n, n, 0.3)
		g = Symmetrize(DropDiagonal(g))
		s := mat.RandomNonNegative(rng, n, 2, 0, 1)
		got := GraphRegularizationWS(g, nil, s, nil)
		var want float64
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				w := g.At(i, j)
				if w == 0 {
					continue
				}
				var d2 float64
				for q := 0; q < 2; q++ {
					d := s.At(i, q) - s.At(j, q)
					d2 += d * d
				}
				want += 0.5 * w * d2
			}
		}
		return math.Abs(got-want) <= 1e-8*(1+math.Abs(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestLaplacianDecomposition: L·B is D·B − G·B bit for bit, on random
// graphs with isolated vertices, launched inline and split into blocks —
// so a caller holding D·B and G·B may form L·B from them with one Sub.
func TestLaplacianDecomposition(t *testing.T) {
	defer par.SetProcs(0)
	rng := rand.New(rand.NewSource(7))
	par.SetProcs(2)
	for _, n := range []int{6, 40, 20000} {
		edges := NewCOO(n, n) // ≈3 a vertex, so some vertices have none
		for e := 0; e < 3*n/2; e++ {
			edges.Add(rng.Intn(n), rng.Intn(n), rng.Float64()*2)
		}
		g := Symmetrize(DropDiagonal(edges.ToCSR()))
		b := signedOperand(rng, n)
		if split := par.Blocks(n, b.Cols()+1) > 1; split != (n == 20000) {
			t.Fatalf("%d vertices: par.Blocks = %d, the shapes do not test the launches they name", n, par.Blocks(n, b.Cols()+1))
		}
		lb := LaplacianMulDenseInto(nil, g, nil, b)
		diff := mat.NewDense(n, b.Cols())
		diff.Sub(DegreeMulDenseInto(nil, g, nil, b), g.MulDense(b))
		if !sameBits(lb, diff) {
			t.Fatalf("%d vertices: L·B does not have the bits of D·B − G·B", n)
		}
	}
}

func TestSymmetrize(t *testing.T) {
	g := FromDenseRows([][]float64{{0, 2}, {0, 0}})
	s := Symmetrize(g)
	if s.At(0, 1) != 1 || s.At(1, 0) != 1 {
		t.Fatalf("Symmetrize = %v", s.ToDense())
	}
}

func TestDropDiagonal(t *testing.T) {
	g := FromDenseRows([][]float64{{5, 1}, {2, 7}})
	d := DropDiagonal(g)
	if d.At(0, 0) != 0 || d.At(1, 1) != 0 || d.At(0, 1) != 1 || d.At(1, 0) != 2 {
		t.Fatalf("DropDiagonal = %v", d.ToDense())
	}
}

func TestEmptyMatrixOps(t *testing.T) {
	z := Zeros(3, 4)
	if z.NNZ() != 0 {
		t.Fatal("Zeros has entries")
	}
	b := mat.NewDense(4, 2)
	out := z.MulDense(b)
	if out.FrobeniusSq() != 0 {
		t.Fatal("empty SpMM non-zero")
	}
	if z.T().Rows() != 4 {
		t.Fatal("empty transpose wrong shape")
	}
}

func TestRowAccessor(t *testing.T) {
	m := FromDenseRows([][]float64{{0, 5, 0, 7}})
	cols, vals := m.Row(0)
	if len(cols) != 2 || cols[0] != 1 || cols[1] != 3 || vals[0] != 5 || vals[1] != 7 {
		t.Fatalf("Row = %v %v", cols, vals)
	}
	if m.RowNNZ(0) != 2 {
		t.Fatalf("RowNNZ = %d", m.RowNNZ(0))
	}
}
