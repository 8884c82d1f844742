package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"triclust/internal/mat"
	"triclust/internal/par"
)

func withProcs(p int, fn func()) {
	par.SetProcs(p)
	defer par.SetProcs(0)
	fn()
}

// sameBits reports whether a and b hold the same bits entry for entry.
func sameBits(a, b *mat.Dense) bool {
	if !a.Dims(b.Rows(), b.Cols()) {
		return false
	}
	for i, v := range a.Data() {
		if math.Float64bits(v) != math.Float64bits(b.Data()[i]) {
			return false
		}
	}
	return true
}

// TestParallelSparseKernelsMatchSerial checks serial/parallel agreement
// bit for bit for the SpMM, Laplacian, degree and residual kernels at
// sizes crossing the par threshold.
func TestParallelSparseKernelsMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rows, cols, k := 3000, 500, 8
	x := randomCSR(rng, rows, cols, 0.02)
	dense := mat.RandomNonNegative(rng, cols, k, 0.1, 1)
	u := mat.RandomNonNegative(rng, rows, k, 0.1, 1)
	c := mat.RandomNonNegative(rng, k, k, 0.1, 1)
	v := mat.RandomNonNegative(rng, cols, k, 0.1, 1)
	g := randomCSR(rng, rows, rows, 0.005)
	gb := mat.RandomNonNegative(rng, rows, k, 0.1, 1)

	var serialMul, parMul *mat.Dense
	withProcs(1, func() { serialMul = x.MulDense(dense) })
	withProcs(4, func() { parMul = x.MulDense(dense) })
	if !sameBits(serialMul, parMul) {
		t.Fatal("MulDense: serial and parallel outputs differ")
	}

	var serialLap, parLap, serialDeg, parDeg *mat.Dense
	withProcs(1, func() {
		serialLap = LaplacianMulDenseInto(nil, g, nil, gb)
		serialDeg = DegreeMulDenseInto(nil, g, nil, gb)
	})
	withProcs(4, func() {
		parLap = LaplacianMulDenseInto(nil, g, nil, gb)
		parDeg = DegreeMulDenseInto(nil, g, nil, gb)
	})
	if !sameBits(serialLap, parLap) {
		t.Fatal("LaplacianMulDenseInto: serial/parallel mismatch")
	}
	if !sameBits(serialDeg, parDeg) {
		t.Fatal("DegreeMulDenseInto: serial/parallel mismatch")
	}

	var serialRes, parRes float64
	withProcs(1, func() { serialRes = x.ResidualFrobeniusSqWS(x.FrobeniusSq(), u, c, v, nil) })
	withProcs(4, func() { parRes = x.ResidualFrobeniusSqWS(x.FrobeniusSq(), u, c, v, nil) })
	if math.Float64bits(serialRes) != math.Float64bits(parRes) {
		t.Fatalf("ResidualFrobeniusSqWS: serial %v vs parallel %v", serialRes, parRes)
	}
}

// TestReductionBitsIgnoreWidth holds ResidualFrobeniusSqWS, whose cross
// term and Gram matrices reduce per-block partials, to one summation tree:
// over a 20000-row matrix it has the bits it has at two procs when it runs
// inline because another parallel region holds the pool, and at one, three
// and four procs.
func TestReductionBitsIgnoreWidth(t *testing.T) {
	defer par.SetProcs(0)
	rng := rand.New(rand.NewSource(37))
	const rows, cols = 20000, 200
	x := randomCSR(rng, rows, cols, 0.05)
	if nb := par.Blocks(rows, x.spmmCostPerRow(3)); nb < 5 {
		t.Fatalf("the cross term is %d blocks, the shape does not test a split", nb)
	}
	u, c, v := signedOperand(rng, rows), signedOperand(rng, 3), signedOperand(rng, cols)
	normSq := x.FrobeniusSq()
	run := func() float64 { return x.ResidualFrobeniusSqWS(normSq, u, c, v, nil) }
	par.SetProcs(2)
	want := run()
	check := func(mode string, got float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: %v, %v at two procs", mode, got, want)
		}
	}
	var contended float64
	par.Run(2, par.MinParallelWork, func(blk, _, _ int) {
		if blk == 0 {
			contended = run()
		}
	})
	check("beside another region", contended)
	for _, procs := range []int{1, 3, 4} {
		par.SetProcs(procs)
		check(fmt.Sprintf("procs %d", procs), run())
	}
}

func TestMulDenseIntoReusesDst(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	x := randomCSR(rng, 40, 20, 0.2)
	b := mat.RandomNonNegative(rng, 20, 3, 0.1, 1)
	dst := mat.NewDense(40, 3)
	dst.Fill(7) // stale values must be overwritten
	if got, want := x.MulDenseInto(dst, b), x.MulDense(b); !mat.Equal(got, want, 1e-14) {
		t.Fatal("MulDenseInto(dst) != MulDense")
	}
}

// TestLaplacianIntoWithCachedDegrees holds LaplacianMulDenseInto and
// DegreeMulDenseInto, with cached and with computed degrees, to the dense
// loops Σⱼ L(i,j)·B(j,·) and d(i)·B(i,·) over g's entries.
func TestLaplacianIntoWithCachedDegrees(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	g := randomCSR(rng, 60, 60, 0.1)
	b := mat.RandomNonNegative(rng, 60, 3, 0.1, 1)
	deg := Degrees(g)
	gd := g.ToDense()
	lap, dB := mat.NewDense(60, 3), mat.NewDense(60, 3)
	for i := 0; i < 60; i++ {
		d := 0.0
		for j := 0; j < 60; j++ {
			d += gd.At(i, j)
		}
		for c := 0; c < 3; c++ {
			dB.Set(i, c, d*b.At(i, c))
			v := d * b.At(i, c)
			for j := 0; j < 60; j++ {
				v -= gd.At(i, j) * b.At(j, c)
			}
			lap.Set(i, c, v)
		}
	}
	for name, got := range map[string]*mat.Dense{
		"LaplacianMulDenseInto(deg)": LaplacianMulDenseInto(mat.NewDense(60, 3), g, deg, b),
		"LaplacianMulDenseInto(nil)": LaplacianMulDenseInto(nil, g, nil, b),
	} {
		if !mat.Equal(got, lap, 1e-12) {
			t.Errorf("%s is not L·B", name)
		}
	}
	for name, got := range map[string]*mat.Dense{
		"DegreeMulDenseInto(deg)": DegreeMulDenseInto(mat.NewDense(60, 3), g, deg, b),
		"DegreeMulDenseInto(nil)": DegreeMulDenseInto(nil, g, nil, b),
	} {
		if !mat.Equal(got, dB, 1e-12) {
			t.Errorf("%s is not D·B", name)
		}
	}
}
