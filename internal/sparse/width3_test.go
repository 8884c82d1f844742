package sparse

import (
	"math"
	"math/rand"
	"testing"

	"triclust/internal/mat"
	"triclust/internal/par"
)

// signedOperand returns an n×3 matrix of signed values of which about a
// quarter are exact zeros.
func signedOperand(rng *rand.Rand, n int) *mat.Dense {
	m := mat.NewDense(n, 3)
	for i := range m.Data() {
		if rng.Intn(4) > 0 {
			m.Data()[i] = 2*rng.Float64() - 1
		}
	}
	return m
}

// TestWidth3BodiesMatchRowLoops holds the SpMM's and the residual cross
// term's width-3 bodies to the generic row loops they stand in for, bit
// for bit, launched the way their kernels launch them — inline, and split
// into blocks at one and two procs with the cross term's partials summed
// in block order — at 0, 1 and odd row counts. MulDenseInto and
// ResidualFrobeniusSqWS are held to the generic loops the same way.
func TestWidth3BodiesMatchRowLoops(t *testing.T) {
	defer par.SetProcs(0)
	rng := rand.New(rand.NewSource(31))
	const cols = 300
	for _, procs := range []int{1, 2} {
		par.SetProcs(procs)
		for _, rows := range []int{0, 1, 7, 3001} {
			x := randomCSR(rng, rows, cols, 0.04)
			cost := x.spmmCostPerRow(3)
			if split := par.Blocks(rows, cost) > 1; split != (rows == 3001) {
				t.Fatalf("rows %d: par.Blocks = %d, the shapes do not test the launches they name", rows, par.Blocks(rows, cost))
			}
			b, u := signedOperand(rng, cols), signedOperand(rng, rows)

			spmm := func(body func(dst, b *mat.Dense, lo, hi int)) *mat.Dense {
				out := mat.NewDense(rows, 3)
				out.Fill(7) // a body must overwrite, not accumulate
				if par.Blocks(rows, cost) == 1 {
					body(out, b, 0, rows)
				} else {
					par.Run(rows, cost, func(_, lo, hi int) { body(out, b, lo, hi) })
				}
				return out
			}
			want := spmm(x.mulDenseRangeAny)
			for name, got := range map[string]*mat.Dense{
				"mulDenseRange3": spmm(x.mulDenseRange3),
				"MulDenseInto":   x.MulDenseInto(nil, b),
			} {
				for i, v := range got.Data() {
					if math.Float64bits(v) != math.Float64bits(want.Data()[i]) {
						t.Fatalf("%s, procs %d, rows %d: differs at %d: %v vs %v", name, procs, rows, i, v, want.Data()[i])
					}
				}
			}

			cross := func(body func(uc, v *mat.Dense, lo, hi int) float64) float64 {
				parts := make([]float64, par.Blocks(rows, cost))
				par.Run(rows, cost, func(blk, lo, hi int) { parts[blk] = body(u, b, lo, hi) })
				var sum float64
				for _, p := range parts {
					sum += p
				}
				return sum
			}
			wantCross := cross(x.crossRangeAny)
			normSq := x.FrobeniusSq()
			wantRes := normSq - 2*wantCross + mat.Dot(mat.GramInto(nil, u), mat.GramInto(nil, b))
			for name, got := range map[string][2]float64{
				"crossRange3":           {cross(x.crossRange3), wantCross},
				"ResidualFrobeniusSqWS": {x.ResidualFrobeniusSqWS(normSq, u, nil, b, nil), wantRes},
			} {
				if math.Float64bits(got[0]) != math.Float64bits(got[1]) {
					t.Errorf("%s, procs %d, rows %d: %v vs %v", name, procs, rows, got[0], got[1])
				}
			}
		}
	}
}
