package mat

import (
	"math"
	"math/rand"
	"testing"

	"triclust/internal/par"
)

// width3Operand returns an n×3 matrix of signed values of which about a
// quarter are exact zeros.
func width3Operand(rng *rand.Rand, n int) *Dense {
	m := NewDense(n, 3)
	for i := range m.data {
		if rng.Intn(4) > 0 {
			m.data[i] = 2*rng.Float64() - 1
		}
	}
	return m
}

// sameBits reports the first index at which got and want differ bit for
// bit, or -1.
func sameBits(got, want []float64) int {
	if len(got) != len(want) {
		return 0
	}
	for i, v := range got {
		if math.Float64bits(v) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

// TestWidth3BodiesMatchRowLoops holds each width-3 body to the generic row
// loop it stands in for, bit for bit, launched the way its kernel launches
// it — inline, and split into blocks at one and two procs — at 0, 1 and
// odd row counts.
// a carries exact zeros; in the inf cases b also carries an infinity that
// only the zero skip keeps out of a sum (0·∞ is NaN), so a body that drops
// the skip fails too. The kernels themselves (Mul, MulATB, GramInto) are
// held to the generic loops the same way.
func TestWidth3BodiesMatchRowLoops(t *testing.T) {
	defer par.SetProcs(0)
	rng := rand.New(rand.NewSource(30))
	const cost = 9 // both kernels' cost a row at k = 3
	for _, procs := range []int{1, 2} {
		par.SetProcs(procs)
		for _, n := range []int{0, 1, 7, 8001} {
			if split := par.Blocks(n, cost) > 1; split != (n == 8001) {
				t.Fatalf("n %d: par.Blocks = %d, the shapes do not test the launches they name", n, par.Blocks(n, cost))
			}
			for _, inf := range []bool{false, true} {
				a, b, core := width3Operand(rng, n), width3Operand(rng, n), width3Operand(rng, 3)
				if inf && n > 0 {
					core.Set(1, 2, math.Inf(1))
					r := n / 2
					a.Set(r, 1, 0)
					b.Set(r, 0, math.Inf(-1))
				}
				check := func(name string, got, want []float64) {
					t.Helper()
					if i := sameBits(got, want); i >= 0 {
						t.Errorf("%s, procs %d, n %d, inf %v: differs at %d: %v vs %v", name, procs, n, inf, i, got[i], want[i])
					}
				}

				mul := func(rows func(dst, a, b *Dense, lo, hi int)) *Dense {
					out := NewDense(n, 3)
					out.Fill(7) // a body must overwrite, not accumulate
					if par.Blocks(n, cost) == 1 {
						rows(out, a, core, 0, n)
					} else {
						par.Run(n, cost, func(_, lo, hi int) { rows(out, a, core, lo, hi) })
					}
					return out
				}
				want := mul(mulRangeAny)
				check("mulRange3", mul(mulRange3).data, want.data)
				check("Mul", ProductInto(nil, a, core).data, want.data)

				// MulATB's block tree: one partial per block, summed in
				// block order.
				atb := func(rows func(dst []float64, a, b *Dense, lo, hi int), a, b *Dense) *Dense {
					out := NewDense(3, 3)
					parts := make([]float64, par.Blocks(n, cost)*9)
					par.Run(n, cost, func(blk, lo, hi int) { rows(parts[blk*9:(blk+1)*9], a, b, lo, hi) })
					for i, v := range parts {
						out.data[i%9] += v
					}
					return out
				}
				want = atb(mulATBRangeAny, a, b)
				check("mulATBRange3", atb(mulATBRange3, a, b).data, want.data)
				got := NewDense(3, 3)
				got.MulATB(a, b)
				check("MulATB", got.data, want.data)
				check("GramInto", GramInto(nil, a).data, atb(mulATBRangeAny, a, a).data)
			}
		}
	}
}
