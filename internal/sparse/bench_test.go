package sparse

import (
	"fmt"
	"math/rand"
	"testing"

	"triclust/internal/mat"
)

// Corpus-like shapes: thousands of rows, sparse rows of tens of entries,
// multiplied against tall-skinny factors k ∈ {2, 3} wide, the widths the
// API accepts (k = 3 runs the width-3 bodies, k = 2 the generic loops).
// Run with `go test -bench . -benchmem ./internal/sparse`.

var benchSpShapes = []struct {
	rows, cols, k int
	density       float64
}{
	{2000, 500, 3, 0.02},
	{20000, 2000, 3, 0.005},
	{20000, 2000, 2, 0.005},
}

func benchCSR(rows, cols int, density float64) *CSR {
	rng := rand.New(rand.NewSource(3))
	return randomCSR(rng, rows, cols, density)
}

func BenchmarkMulDense(b *testing.B) {
	for _, s := range benchSpShapes {
		b.Run(fmt.Sprintf("%dx%d_k%d", s.rows, s.cols, s.k), func(b *testing.B) {
			x := benchCSR(s.rows, s.cols, s.density)
			rng := rand.New(rand.NewSource(4))
			d := mat.RandomNonNegative(rng, s.cols, s.k, 0.1, 1)
			out := mat.NewDense(s.rows, s.k)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x.MulDenseInto(out, d)
			}
		})
	}
}

func BenchmarkLaplacianMulDense(b *testing.B) {
	g := benchCSR(5000, 5000, 0.002)
	rng := rand.New(rand.NewSource(6))
	d := mat.RandomNonNegative(rng, 5000, 3, 0.1, 1)
	deg := Degrees(g)
	out := mat.NewDense(5000, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LaplacianMulDenseInto(out, g, deg, d)
	}
}

func BenchmarkResidualFrobeniusSq(b *testing.B) {
	for _, s := range benchSpShapes {
		b.Run(fmt.Sprintf("%dx%d_k%d", s.rows, s.cols, s.k), func(b *testing.B) {
			x := benchCSR(s.rows, s.cols, s.density)
			rng := rand.New(rand.NewSource(7))
			u := mat.RandomNonNegative(rng, s.rows, s.k, 0.1, 1)
			c := mat.RandomNonNegative(rng, s.k, s.k, 0.1, 1)
			v := mat.RandomNonNegative(rng, s.cols, s.k, 0.1, 1)
			ws := mat.NewWorkspace()
			normSq := x.FrobeniusSq()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x.ResidualFrobeniusSqWS(normSq, u, c, v, ws)
			}
		})
	}
}
