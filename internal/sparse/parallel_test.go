package sparse

import (
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

// TestParallelSparseKernelsMatchSerial checks serial/parallel agreement
// within 1e-10 for the SpMM, Laplacian, degree and residual kernels at
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
	if !mat.Equal(serialMul, parMul, 1e-10) {
		t.Fatal("MulDense: serial and parallel outputs differ beyond 1e-10")
	}

	var serialLap, parLap, serialDeg, parDeg *mat.Dense
	withProcs(1, func() {
		serialLap = LaplacianMulDense(g, gb)
		serialDeg = DegreeMulDense(g, gb)
	})
	withProcs(4, func() {
		parLap = LaplacianMulDense(g, gb)
		parDeg = DegreeMulDense(g, gb)
	})
	if !mat.Equal(serialLap, parLap, 1e-10) {
		t.Fatal("LaplacianMulDense: serial/parallel mismatch")
	}
	if !mat.Equal(serialDeg, parDeg, 1e-10) {
		t.Fatal("DegreeMulDense: serial/parallel mismatch")
	}

	var serialRes, parRes float64
	withProcs(1, func() { serialRes = x.ResidualFrobeniusSq(u, c, v) })
	withProcs(4, func() { parRes = x.ResidualFrobeniusSq(u, c, v) })
	if d := serialRes - parRes; d > 1e-10*(1+serialRes) || -d > 1e-10*(1+serialRes) {
		t.Fatalf("ResidualFrobeniusSq: serial %v vs parallel %v", serialRes, parRes)
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

func TestLaplacianIntoWithCachedDegrees(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	g := randomCSR(rng, 60, 60, 0.1)
	b := mat.RandomNonNegative(rng, 60, 3, 0.1, 1)
	deg := Degrees(g)
	dst := mat.NewDense(60, 3)
	if got, want := LaplacianMulDenseInto(dst, g, deg, b), LaplacianMulDense(g, b); !mat.Equal(got, want, 1e-12) {
		t.Fatal("LaplacianMulDenseInto(deg) != LaplacianMulDense")
	}
	dst2 := mat.NewDense(60, 3)
	if got, want := DegreeMulDenseInto(dst2, g, deg, b), DegreeMulDense(g, b); !mat.Equal(got, want, 1e-12) {
		t.Fatal("DegreeMulDenseInto(deg) != DegreeMulDense")
	}
}
