package baseline

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"triclust/internal/par"
	"triclust/internal/sparse"
)

// TestKMeansScoreBitsIgnoreWidth holds the assignment step's score, which
// reduces per-block partials, to one summation tree: over 20000 rows it
// has the bits it has at two procs when it runs inline because another
// parallel region holds the pool, and at one, three and four procs.
func TestKMeansScoreBitsIgnoreWidth(t *testing.T) {
	defer par.SetProcs(0)
	rng := rand.New(rand.NewSource(37))
	const n, l, k = 20000, 500, 3
	b := sparse.NewCOO(n, l)
	for i := 0; i < n; i++ {
		for e := 0; e < 10; e++ {
			b.Add(i, rng.Intn(l), rng.Float64())
		}
	}
	x := b.ToCSR()
	norms := make([]float64, n)
	for i := range norms {
		_, vals := x.Row(i)
		for _, v := range vals {
			norms[i] += v * v
		}
		norms[i] = math.Sqrt(norms[i])
	}
	centroids := make([][]float64, k)
	for c := range centroids {
		centroids[c] = make([]float64, l)
		for j := range centroids[c] {
			centroids[c][j] = rng.Float64()
		}
	}
	cost := k * (x.NNZ()/n + 1)
	nb := par.Blocks(n, cost)
	if nb < 5 {
		t.Fatalf("the assignment step is %d blocks, the shape does not test a split", nb)
	}
	run := func() float64 {
		score, _ := assignRows(x, cost, norms, centroids, make([]int, n), make([]float64, nb), make([]bool, nb))
		return score
	}
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
