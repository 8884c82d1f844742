// Package sparse implements compressed sparse row (CSR) matrices and the
// sparse–dense kernels used by the tri-clustering algorithms.
//
// The data matrices of the paper — tweet–feature Xp, user–feature Xu,
// user–tweet Xr and the user–user retweet graph Gu — are extremely sparse
// (a tweet has tens of words out of a vocabulary of thousands), so every
// product against a tall-skinny factor matrix is computed as an SpMM in
// O(nnz·k) instead of O(rows·cols·k).
package sparse

import (
	"fmt"
	"sort"

	"triclust/internal/mat"
	"triclust/internal/par"
)

// CSR is an immutable compressed-sparse-row matrix.
type CSR struct {
	rows, cols int
	rowPtr     []int     // len rows+1
	colIdx     []int     // len nnz, ascending within each row
	val        []float64 // len nnz
}

// Rows returns the number of rows.
func (m *CSR) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *CSR) Cols() int { return m.cols }

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.val) }

// At returns the element at (i, j) using binary search within row i.
func (m *CSR) At(i, j int) float64 {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("sparse: At(%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	idx := sort.SearchInts(m.colIdx[lo:hi], j) + lo
	if idx < hi && m.colIdx[idx] == j {
		return m.val[idx]
	}
	return 0
}

// Row returns the column indices and values of row i as sub-slices of the
// backing storage. Callers must not mutate them.
func (m *CSR) Row(i int) (cols []int, vals []float64) {
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	return m.colIdx[lo:hi], m.val[lo:hi]
}

// RowNNZ returns the number of stored entries in row i.
func (m *CSR) RowNNZ(i int) int { return m.rowPtr[i+1] - m.rowPtr[i] }

// Zeros returns an empty rows×cols CSR matrix.
func Zeros(rows, cols int) *CSR {
	return &CSR{rows: rows, cols: cols, rowPtr: make([]int, rows+1)}
}

// spmmCostPerRow estimates the scalar work per output row of an SpMM so
// package par can decide whether splitting pays: average row nnz times the
// dense width.
func (m *CSR) spmmCostPerRow(denseCols int) int {
	if m.rows == 0 {
		return 1
	}
	return (len(m.val)/m.rows + 1) * denseCols
}

// MulDense returns m·b as a dense matrix (rows×b.Cols()).
func (m *CSR) MulDense(b *mat.Dense) *mat.Dense {
	return m.MulDenseInto(nil, b)
}

// mulDenseRange and crossRange pick a body by width, as package mat's
// products do: a 3-wide dense operand (the solver's k = 3) takes a body
// that walks the flat backing slices with its sums in locals, adding the
// same terms in the same order as the generic loop, so both produce the
// same bits; every other width takes the generic loop.

func (m *CSR) mulDenseRange(dst, b *mat.Dense, lo, hi int) {
	if b.Cols() == 3 {
		m.mulDenseRange3(dst, b, lo, hi)
	} else {
		m.mulDenseRangeAny(dst, b, lo, hi)
	}
}

func (m *CSR) mulDenseRangeAny(dst, b *mat.Dense, lo, hi int) {
	for i := lo; i < hi; i++ {
		orow := dst.Row(i)
		for j := range orow {
			orow[j] = 0
		}
		rlo, rhi := m.rowPtr[i], m.rowPtr[i+1]
		for p := rlo; p < rhi; p++ {
			v := m.val[p]
			brow := b.Row(m.colIdx[p])
			drow := orow[:len(brow)]
			for j, bv := range brow {
				drow[j] += v * bv
			}
		}
	}
}

// mulDenseRange3 is mulDenseRangeAny for a 3-wide b.
func (m *CSR) mulDenseRange3(dst, b *mat.Dense, lo, hi int) {
	bd, od := b.Data(), dst.Data()
	for i := lo; i < hi; i++ {
		rlo, rhi := m.rowPtr[i], m.rowPtr[i+1]
		vals := m.val[rlo:rhi]
		var o0, o1, o2 float64
		for p, j := range m.colIdx[rlo:rhi] {
			v := vals[p]
			br := bd[3*j : 3*j+3]
			o0 += v * br[0]
			o1 += v * br[1]
			o2 += v * br[2]
		}
		o := od[3*i : 3*i+3]
		o[0], o[1], o[2] = o0, o1, o2
	}
}

// MulDenseInto stores m·b into dst (rows×b.Cols()) and returns it; a nil
// dst allocates. dst must not alias b: rows of dst are zeroed before rows
// of b are gathered, so aliasing silently corrupts the product. Output
// rows are disjoint per input row, so the row range is split across
// workers by package par.
func (m *CSR) MulDenseInto(dst *mat.Dense, b *mat.Dense) *mat.Dense {
	if m.cols != b.Rows() {
		panic(fmt.Sprintf("sparse: MulDense %dx%d · %dx%d", m.rows, m.cols, b.Rows(), b.Cols()))
	}
	if dst == nil {
		dst = mat.NewDense(m.rows, b.Cols())
	} else if !dst.Dims(m.rows, b.Cols()) {
		panic(fmt.Sprintf("sparse: MulDenseInto dst is %dx%d, want %dx%d", dst.Rows(), dst.Cols(), m.rows, b.Cols()))
	}
	if cost := m.spmmCostPerRow(b.Cols()); par.Blocks(m.rows, cost) == 1 {
		m.mulDenseRange(dst, b, 0, m.rows)
	} else {
		par.Run(m.rows, cost, func(_, lo, hi int) { m.mulDenseRange(dst, b, lo, hi) })
	}
	return dst
}

// T returns the transpose as a new CSR matrix.
func (m *CSR) T() *CSR {
	return m.TransposeInto(nil, nil)
}

// TransposeInto stores mᵀ into dst, reusing dst's backing storage (a nil
// dst allocates one), with scratch providing the per-column cursor array
// (grown as needed and returned for reuse). Hot paths that retranspose
// per batch keep dst and scratch alive across calls so the steady state
// allocates nothing.
func (m *CSR) TransposeInto(dst *CSR, scratch *[]int) *CSR {
	if dst == nil {
		dst = &CSR{}
	}
	dst.rows, dst.cols = m.cols, m.rows
	dst.rowPtr = growInts(dst.rowPtr, m.cols+1)
	dst.colIdx = growInts(dst.colIdx, len(m.colIdx))
	dst.val = growFloats(dst.val, len(m.val))
	for j := range dst.rowPtr {
		dst.rowPtr[j] = 0
	}
	for _, j := range m.colIdx {
		dst.rowPtr[j+1]++
	}
	for j := 0; j < m.cols; j++ {
		dst.rowPtr[j+1] += dst.rowPtr[j]
	}
	var next []int
	if scratch != nil {
		*scratch = growInts(*scratch, m.cols)
		next = *scratch
	} else {
		next = make([]int, m.cols)
	}
	copy(next, dst.rowPtr[:m.cols])
	for i := 0; i < m.rows; i++ {
		lo, hi := m.rowPtr[i], m.rowPtr[i+1]
		for p := lo; p < hi; p++ {
			j := m.colIdx[p]
			d := next[j]
			dst.colIdx[d] = i
			dst.val[d] = m.val[p]
			next[j]++
		}
	}
	return dst
}

// ScaleColsInPlace multiplies column j of m by s[j], mutating m. Only
// owners of a matrix that is not yet shared may call it (CSR values are
// otherwise treated as immutable).
func (m *CSR) ScaleColsInPlace(s []float64) {
	if len(s) != m.cols {
		panic("sparse: ScaleColsInPlace length mismatch")
	}
	for p, j := range m.colIdx {
		m.val[p] *= s[j]
	}
}

// FillValues overwrites every stored entry with v (v must be non-zero to
// preserve the no-explicit-zeros invariant). Used to clamp accumulated
// incidence counts to 0/1 without rebuilding the matrix.
func (m *CSR) FillValues(v float64) {
	if v == 0 {
		panic("sparse: FillValues(0) would store explicit zeros")
	}
	for p := range m.val {
		m.val[p] = v
	}
}

// FrobeniusSq returns Σ v² over stored entries.
func (m *CSR) FrobeniusSq() float64 {
	var s float64
	for _, v := range m.val {
		s += v * v
	}
	return s
}

// RowSums returns the vector of per-row sums.
func (m *CSR) RowSums() []float64 {
	return m.RowSumsInto(nil)
}

// RowSumsInto computes the per-row sums into dst, reusing its backing
// array when large enough.
func (m *CSR) RowSumsInto(dst []float64) []float64 {
	out := growFloats(dst, m.rows)
	for i := 0; i < m.rows; i++ {
		lo, hi := m.rowPtr[i], m.rowPtr[i+1]
		var s float64
		for p := lo; p < hi; p++ {
			s += m.val[p]
		}
		out[i] = s
	}
	return out
}

// ColSums returns the vector of per-column sums.
func (m *CSR) ColSums() []float64 {
	out := make([]float64, m.cols)
	for p, j := range m.colIdx {
		out[j] += m.val[p]
	}
	return out
}

// ToDense expands m to a dense matrix. Intended for tests and tiny inputs.
func (m *CSR) ToDense() *mat.Dense {
	out := mat.NewDense(m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		lo, hi := m.rowPtr[i], m.rowPtr[i+1]
		for p := lo; p < hi; p++ {
			out.Set(i, m.colIdx[p], m.val[p])
		}
	}
	return out
}

// crossRange returns Σ X(i,j)·(UCVᵀ)(i,j) over rows [lo, hi) of X = m,
// with uc = U·C.
func (m *CSR) crossRange(uc, v *mat.Dense, lo, hi int) float64 {
	if uc.Cols() == 3 && v.Cols() == 3 {
		return m.crossRange3(uc, v, lo, hi)
	}
	return m.crossRangeAny(uc, v, lo, hi)
}

func (m *CSR) crossRangeAny(uc, v *mat.Dense, lo, hi int) float64 {
	var sum float64
	for i := lo; i < hi; i++ {
		rlo, rhi := m.rowPtr[i], m.rowPtr[i+1]
		urow := uc.Row(i)
		for p := rlo; p < rhi; p++ {
			vrow := v.Row(m.colIdx[p])
			var dot float64
			for q, uv := range urow {
				dot += uv * vrow[q]
			}
			sum += m.val[p] * dot
		}
	}
	return sum
}

// crossRange3 is crossRangeAny for 3-wide uc and v, uc's row in locals.
func (m *CSR) crossRange3(uc, v *mat.Dense, lo, hi int) float64 {
	ud, vd := uc.Data(), v.Data()
	var sum float64
	for i := lo; i < hi; i++ {
		u := ud[3*i : 3*i+3]
		u0, u1, u2 := u[0], u[1], u[2]
		rlo, rhi := m.rowPtr[i], m.rowPtr[i+1]
		vals := m.val[rlo:rhi]
		for p, j := range m.colIdx[rlo:rhi] {
			vr := vd[3*j : 3*j+3]
			var dot float64
			dot += u0 * vr[0]
			dot += u1 * vr[1]
			dot += u2 * vr[2]
			sum += vals[p] * dot
		}
	}
	return sum
}

// ResidualFrobeniusSqWS returns ||X − U·C·Vᵀ||_F² where X = m (rows×cols),
// U is rows×k, C is k×k and V is cols×k, evaluated without densifying X:
//
//	||X||² − 2·⟨X, U C Vᵀ⟩ + ||U C Vᵀ||²
//
// using ⟨X, UCVᵀ⟩ = Σ_{(i,j)∈nnz} X(i,j)·(UCVᵀ)(i,j) and
// ||UCVᵀ||² = tr(Cᵀ UᵀU C VᵀV). Pass C = nil for the two-factor residual
// ||X − U Vᵀ||² (as in the Xr ≈ Su Spᵀ term). The caller keeps
// normSq = m.FrobeniusSq() across calls; the temporaries (U·C and the two
// Gram matrices) come from ws, and a nil ws allocates. The nnz-sized cross
// term Σ X(i,j)·(UCVᵀ)(i,j) is summed per row block (par.Blocks) and the
// block sums are added in block order, so its bits do not depend on the
// parallelism width.
func (m *CSR) ResidualFrobeniusSqWS(normSq float64, u, c, v *mat.Dense, ws *mat.Workspace) float64 {
	k := u.Cols()
	if v.Cols() != k {
		panic("sparse: ResidualFrobeniusSqWS factor rank mismatch")
	}
	if u.Rows() != m.rows || v.Rows() != m.cols {
		panic("sparse: ResidualFrobeniusSqWS shape mismatch")
	}
	if ws == nil {
		ws = mat.NewWorkspace()
	}
	// uc = U·C (rows×k); with C==nil, uc = U.
	uc := u
	var ucScratch *mat.Dense
	if c != nil {
		if !c.Dims(k, k) {
			panic("sparse: ResidualFrobeniusSqWS core must be k×k")
		}
		ucScratch = ws.Get(u.Rows(), k)
		ucScratch.Mul(u, c)
		uc = ucScratch
	}
	cost := m.spmmCostPerRow(k)
	var cross float64
	if nb := par.Blocks(m.rows, cost); nb == 1 {
		cross = m.crossRange(uc, v, 0, m.rows)
	} else {
		parts := make([]float64, nb)
		par.Run(m.rows, cost, func(blk, lo, hi int) { parts[blk] = m.crossRange(uc, v, lo, hi) })
		for _, p := range parts {
			cross += p
		}
	}
	gramU := mat.GramInto(ws.Get(k, k), uc)
	gramV := mat.GramInto(ws.Get(k, k), v)
	normApprox := mat.Dot(gramU, gramV)
	ws.Put(gramU, gramV, ucScratch)
	return normSq - 2*cross + normApprox
}

// ScaleRows multiplies row i by s[i], returning a new matrix.
func (m *CSR) ScaleRows(s []float64) *CSR {
	if len(s) != m.rows {
		panic("sparse: ScaleRows length mismatch")
	}
	out := &CSR{rows: m.rows, cols: m.cols,
		rowPtr: append([]int(nil), m.rowPtr...),
		colIdx: append([]int(nil), m.colIdx...),
		val:    make([]float64, len(m.val))}
	for i := 0; i < m.rows; i++ {
		lo, hi := m.rowPtr[i], m.rowPtr[i+1]
		for p := lo; p < hi; p++ {
			out.val[p] = m.val[p] * s[i]
		}
	}
	return out
}
