package sparse

import (
	"triclust/internal/mat"
	"triclust/internal/par"
)

// Degrees returns the degree vector of a (weighted) adjacency matrix:
// d(i) = Σ_j G(i,j).
func Degrees(g *CSR) []float64 { return g.RowSums() }

// LaplacianMulDenseInto computes L·B = (D − G)·B for the graph Laplacian
// of adjacency g without forming L, into dst (nil allocates; g.Rows()×
// B.Cols()): G·B is an SpMM into dst, then each entry becomes
// d(i)·B(i,j) − (G·B)(i,j), with the bits DegreeMulDenseInto minus
// CSR.MulDenseInto give. dst must not alias b (see CSR.MulDenseInto). deg
// may carry precomputed Degrees(g) — solvers cache it so repeated
// Laplacian products skip the O(nnz) degree pass — or be nil to compute it
// here.
func LaplacianMulDenseInto(dst *mat.Dense, g *CSR, deg []float64, b *mat.Dense) *mat.Dense {
	if deg == nil {
		deg = Degrees(g)
	}
	if dst == nil {
		dst = mat.NewDense(g.Rows(), b.Cols())
	}
	gb := g.MulDenseInto(dst, b)
	degreeTerm(gb, g.Rows(), deg, b, true)
	return gb
}

// degreeTerm applies the diagonal degree term over rows [0, n): dst ← D·b,
// or dst ← D·b − dst when subtract is set (completing the Laplacian
// L·b = D·b − G·b).
func degreeTerm(dst *mat.Dense, n int, deg []float64, b *mat.Dense, subtract bool) {
	if cost := b.Cols() + 1; par.Blocks(n, cost) == 1 {
		degreeRange(dst, deg, b, subtract, 0, n)
	} else {
		par.Run(n, cost, func(_, lo, hi int) { degreeRange(dst, deg, b, subtract, lo, hi) })
	}
}

func degreeRange(dst *mat.Dense, deg []float64, b *mat.Dense, subtract bool, lo, hi int) {
	for i := lo; i < hi; i++ {
		d := deg[i]
		brow := b.Row(i)
		orow := dst.Row(i)
		if subtract {
			for j := range orow {
				// The conversion rounds the product before the
				// subtraction on every architecture (Go may fuse x*y − z
				// otherwise), so an entry has D·B's bits minus G·B's.
				orow[j] = float64(d*brow[j]) - orow[j]
			}
		} else {
			for j := range orow {
				orow[j] = d * brow[j]
			}
		}
	}
}

// DegreeMulDenseInto computes D·B where D = diag(degrees of g), writing
// into dst (nil allocates), with an optional precomputed degree vector as
// in LaplacianMulDenseInto.
// dst may alias b (each element is read before it is written).
func DegreeMulDenseInto(dst *mat.Dense, g *CSR, deg []float64, b *mat.Dense) *mat.Dense {
	if deg == nil {
		deg = Degrees(g)
	}
	if dst == nil {
		dst = mat.NewDense(g.Rows(), b.Cols())
	}
	degreeTerm(dst, g.Rows(), deg, b, false)
	return dst
}

// GraphRegularizationWS returns tr(Sᵀ L S) = ½ Σ_{ij} G(i,j)·||S(i)−S(j)||²,
// the user-graph smoothness penalty of Eq. 6. It is computed from the
// identity tr(SᵀLS) = tr(SᵀDS) − tr(SᵀGS) without forming L. deg is an
// optional precomputed degree vector and ws an optional workspace for the
// L·S temporary (nil computes and allocates).
func GraphRegularizationWS(g *CSR, deg []float64, s *mat.Dense, ws *mat.Workspace) float64 {
	var dst *mat.Dense
	if ws != nil {
		dst = ws.Get(g.Rows(), s.Cols())
	}
	ls := LaplacianMulDenseInto(dst, g, deg, s)
	out := mat.Dot(s, ls)
	if ws != nil {
		ws.Put(dst)
	}
	return out
}

// Symmetrize returns (G + Gᵀ)/2 — the paper's user–user retweet graph is
// used undirected for the Laplacian regularizer.
func Symmetrize(g *CSR) *CSR {
	if g.Rows() != g.Cols() {
		panic("sparse: Symmetrize requires a square matrix")
	}
	b := NewCOO(g.Rows(), g.Cols())
	for i := 0; i < g.Rows(); i++ {
		cols, vals := g.Row(i)
		for p, j := range cols {
			b.Add(i, j, vals[p]/2)
			b.Add(j, i, vals[p]/2)
		}
	}
	return b.ToCSR()
}

// DropDiagonal returns g with its diagonal removed (self-loops contribute
// nothing to the Laplacian but distort degree-based normalizations).
func DropDiagonal(g *CSR) *CSR {
	b := NewCOO(g.Rows(), g.Cols())
	for i := 0; i < g.Rows(); i++ {
		cols, vals := g.Row(i)
		for p, j := range cols {
			if i != j {
				b.Add(i, j, vals[p])
			}
		}
	}
	return b.ToCSR()
}
