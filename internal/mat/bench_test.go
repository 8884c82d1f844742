package mat

import (
	"fmt"
	"math/rand"
	"testing"
)

// Factor shapes of the tri-clustering solvers: tall-skinny n×k with
// k ∈ {2, 3}, the widths the API accepts (k = 3, the width-3 bodies, in the
// paper; k = 2 runs the generic loops), plus the tiny k×k core products.
// Run with `go test -bench . -benchmem ./internal/mat`.

var benchShapes = []struct{ n, k int }{
	{1000, 3},
	{20000, 3},
	{20000, 2},
}

func benchMatrices(n, k int) (a, b, kk *Dense) {
	rng := rand.New(rand.NewSource(1))
	a = RandomNonNegative(rng, n, k, 0.1, 1)
	b = RandomNonNegative(rng, n, k, 0.1, 1)
	kk = RandomNonNegative(rng, k, k, 0.1, 1)
	return a, b, kk
}

func BenchmarkMul(bm *testing.B) {
	for _, s := range benchShapes {
		bm.Run(fmt.Sprintf("%dx%d", s.n, s.k), func(bm *testing.B) {
			a, _, kk := benchMatrices(s.n, s.k)
			out := NewDense(s.n, s.k)
			bm.ResetTimer()
			for i := 0; i < bm.N; i++ {
				out.Mul(a, kk)
			}
		})
	}
}

func BenchmarkMulABT(bm *testing.B) {
	for _, s := range benchShapes {
		bm.Run(fmt.Sprintf("%dx%d", s.n, s.k), func(bm *testing.B) {
			a, _, _ := benchMatrices(s.n, s.k)
			rng := rand.New(rand.NewSource(2))
			bt := RandomNonNegative(rng, 64, s.k, 0.1, 1)
			out := NewDense(s.n, 64)
			bm.ResetTimer()
			for i := 0; i < bm.N; i++ {
				out.MulABT(a, bt)
			}
		})
	}
}

func BenchmarkMulATB(bm *testing.B) {
	for _, s := range benchShapes {
		bm.Run(fmt.Sprintf("%dx%d", s.n, s.k), func(bm *testing.B) {
			a, b, _ := benchMatrices(s.n, s.k)
			out := NewDense(s.k, s.k)
			bm.ResetTimer()
			for i := 0; i < bm.N; i++ {
				out.MulATB(a, b)
			}
		})
	}
}

func BenchmarkMulUpdate(bm *testing.B) {
	for _, s := range benchShapes {
		bm.Run(fmt.Sprintf("%dx%d", s.n, s.k), func(bm *testing.B) {
			a, b, _ := benchMatrices(s.n, s.k)
			dst := a.Clone()
			bm.ResetTimer()
			for i := 0; i < bm.N; i++ {
				MulUpdate(dst, a, b)
			}
		})
	}
}

func BenchmarkGramInto(bm *testing.B) {
	for _, s := range benchShapes {
		bm.Run(fmt.Sprintf("%dx%d", s.n, s.k), func(bm *testing.B) {
			a, _, _ := benchMatrices(s.n, s.k)
			out := NewDense(s.k, s.k)
			bm.ResetTimer()
			for i := 0; i < bm.N; i++ {
				GramInto(out, a)
			}
		})
	}
}

// BenchmarkWorkspaceGetPut measures the arena round-trip that replaces a
// heap allocation in the solver sweeps.
func BenchmarkWorkspaceGetPut(bm *testing.B) {
	ws := NewWorkspace()
	for i := 0; i < bm.N; i++ {
		m := ws.Get(100, 3)
		ws.Put(m)
	}
}
