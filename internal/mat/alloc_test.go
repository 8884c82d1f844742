//go:build !race

// Absolute allocation counts only hold without the race detector, whose
// instrumentation allocates and is charged to the measured call.

package mat

import (
	"math/rand"
	"testing"

	"triclust/internal/par"
)

// TestKernelLaunchAllocs pins the launch contract at two procs: a kernel
// whose work is below par.MinParallelWork is one block, runs its row loop
// inline and allocates nothing; one of several blocks allocates its
// closure and, for MulATB, the per-block partials — at most 2 per call.
func TestKernelLaunchAllocs(t *testing.T) {
	defer par.SetProcs(0)
	par.SetProcs(2)
	rng := rand.New(rand.NewSource(3))
	const k = 3
	for _, tc := range []struct {
		n         int
		serial    bool
		maxAllocs float64
	}{
		{64, true, 0},
		{8000, false, 2},
	} {
		a := RandomNonNegative(rng, tc.n, k, 0.1, 1)
		b := RandomNonNegative(rng, tc.n, k, 0.1, 1)
		core := RandomNonNegative(rng, k, k, 0.1, 1)
		few := RandomNonNegative(rng, 8, k, 0.1, 1)
		out, abt, gram := NewDense(tc.n, k), NewDense(tc.n, 8), NewDense(k, k)
		for _, kn := range []struct {
			name       string
			rows, cost int
			run        func()
		}{
			{"Mul", tc.n, k * k, func() { out.Mul(a, core) }},
			{"MulABT", tc.n, k * 8, func() { abt.MulABT(a, few) }},
			{"MulATB", tc.n, k * k, func() { gram.MulATB(a, b) }},
			{"MulUpdate", tc.n * k, 8, func() { MulUpdate(out, a, b) }},
		} {
			if (par.Blocks(kn.rows, kn.cost) == 1) != tc.serial {
				t.Fatalf("%s at n=%d: par.Blocks = %d, the shape does not test the path it names", kn.name, tc.n, par.Blocks(kn.rows, kn.cost))
			}
			if got := testing.AllocsPerRun(20, kn.run); got > tc.maxAllocs {
				t.Errorf("%s at n=%d (serial %v): %.1f allocs per call, want <= %.0f", kn.name, tc.n, tc.serial, got, tc.maxAllocs)
			}
		}
	}
}
