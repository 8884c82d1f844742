//go:build !race

// Absolute allocation counts only hold without the race detector, whose
// instrumentation allocates and is charged to the measured call.

package sparse

import (
	"math/rand"
	"testing"

	"triclust/internal/mat"
	"triclust/internal/par"
)

// TestKernelLaunchAllocs pins the launch contract at two procs: a kernel
// whose work is below par.MinParallelWork is one block, runs its row loop
// inline and allocates nothing (ResidualFrobeniusSqWS with a warm
// workspace); one of several blocks allocates its closure and, for the
// residual's cross term, the per-block partials — at most 2 per call.
func TestKernelLaunchAllocs(t *testing.T) {
	defer par.SetProcs(0)
	par.SetProcs(2)
	rng := rand.New(rand.NewSource(15))
	// perRow random entries in each row, so building a large matrix costs
	// its nnz, not rows × cols draws.
	build := func(rows, cols, perRow int) *CSR {
		b := NewCOO(rows, cols)
		for i := 0; i < rows; i++ {
			for e := 0; e < perRow; e++ {
				b.Add(i, rng.Intn(cols), 0.1+rng.Float64())
			}
		}
		return b.ToCSR()
	}
	const k = 3
	for _, tc := range []struct {
		nx, ng    int
		serial    bool
		maxAllocs float64
	}{
		{60, 60, true, 0},
		// x: 3000·k² stays below the threshold, so inside the residual
		// only the nnz-sized cross term fans out, not U·C or the Gram
		// matrices. g: the degree term costs k+1 a row, so it needs
		// 20000 rows to fan out; the Laplacian's SpMM, dearer a row, then
		// fans out too, and the two launches build one closure each.
		{3000, 20000, false, 2},
	} {
		x := build(tc.nx, tc.nx, 30)
		g := build(tc.ng, tc.ng, 8)
		deg := Degrees(g)
		f := mat.RandomNonNegative(rng, tc.nx, k, 0.1, 1)
		s := mat.RandomNonNegative(rng, tc.nx, k, 0.1, 1)
		c := mat.RandomNonNegative(rng, k, k, 0.1, 1)
		sg := mat.RandomNonNegative(rng, tc.ng, k, 0.1, 1)
		out, outg := mat.NewDense(tc.nx, k), mat.NewDense(tc.ng, k)
		normSq := x.FrobeniusSq()
		ws := mat.NewWorkspace()
		for _, kn := range []struct {
			name       string
			rows, cost int
			run        func()
		}{
			{"MulDenseInto", tc.nx, x.spmmCostPerRow(k), func() { x.MulDenseInto(out, f) }},
			{"ResidualFrobeniusSqWS", tc.nx, x.spmmCostPerRow(k), func() { x.ResidualFrobeniusSqWS(normSq, s, c, f, ws) }},
			{"LaplacianMulDenseInto", tc.ng, k + 1, func() { LaplacianMulDenseInto(outg, g, deg, sg) }},
			{"DegreeMulDenseInto", tc.ng, k + 1, func() { DegreeMulDenseInto(outg, g, deg, sg) }},
		} {
			if (par.Blocks(kn.rows, kn.cost) == 1) != tc.serial {
				t.Fatalf("%s at %d rows: par.Blocks = %d, the shape does not test the path it names", kn.name, kn.rows, par.Blocks(kn.rows, kn.cost))
			}
			if got := testing.AllocsPerRun(20, kn.run); got > tc.maxAllocs {
				t.Errorf("%s at %d rows (serial %v): %.1f allocs per call, want <= %.0f", kn.name, kn.rows, tc.serial, got, tc.maxAllocs)
			}
		}
	}
}
