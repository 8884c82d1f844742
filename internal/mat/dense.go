// Package mat provides dense row-major float64 matrices and the small set
// of linear-algebra kernels needed by the tri-clustering algorithms: matrix
// products, Gram matrices, element-wise sums and scalings, Frobenius norms,
// and the guarded multiplicative-update kernel.
//
// All matrices are dense and stored row-major in a single backing slice.
// The factor matrices in this project are tall and skinny (n×k with
// k ∈ {2, 3}, the widths the API accepts), so dense storage is cheap; the
// large data matrices use package sparse. The products have a width-3 body
// for k = 3 beside the generic loop, with the same results bit for bit.
package mat

import (
	"fmt"
	"math"
	"strings"

	"triclust/internal/par"
)

// Dense is a dense row-major matrix.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense returns a zeroed rows×cols matrix. It panics if either dimension
// is negative.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: invalid dimensions %dx%d", rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// NewDenseData wraps data (len must be rows*cols) without copying.
func NewDenseData(rows, cols int, data []float64) *Dense {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("mat: data length %d != %d*%d", len(data), rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: data}
}

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// Data returns the backing slice (row-major). Mutating it mutates the matrix.
func (m *Dense) Data() []float64 { return m.data }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns v to the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Row returns the i-th row as a sub-slice of the backing storage.
func (m *Dense) Row(i int) []float64 { return m.data[i*m.cols : (i+1)*m.cols] }

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// ReuseDense returns a zeroed rows×cols matrix, reusing m's backing slice
// when it is large enough (m may be nil). Long-lived scratch holders call
// it once per step so the steady state reshapes instead of reallocating.
func ReuseDense(m *Dense, rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: invalid dimensions %dx%d", rows, cols))
	}
	n := rows * cols
	if m == nil || cap(m.data) < n {
		return NewDense(rows, cols)
	}
	m.rows, m.cols = rows, cols
	m.data = m.data[:n]
	for i := range m.data {
		m.data[i] = 0
	}
	return m
}

// CopyFrom copies the contents of src into m. Dimensions must match.
func (m *Dense) CopyFrom(src *Dense) {
	if m.rows != src.rows || m.cols != src.cols {
		panic(dimErr("CopyFrom", m, src))
	}
	copy(m.data, src.data)
}

// Fill sets every element of m to v.
func (m *Dense) Fill(v float64) {
	for i := range m.data {
		m.data[i] = v
	}
}

// Zero sets every element of m to 0.
func (m *Dense) Zero() { m.Fill(0) }

// Dims reports whether m has the given shape.
func (m *Dense) Dims(rows, cols int) bool { return m.rows == rows && m.cols == cols }

func dimErr(op string, a, b *Dense) string {
	return fmt.Sprintf("mat: %s dimension mismatch %dx%d vs %dx%d", op, a.rows, a.cols, b.rows, b.cols)
}

// Add stores a+b into m (m may alias a or b).
func (m *Dense) Add(a, b *Dense) {
	checkSame("Add", a, b)
	checkSame("Add(dst)", m, a)
	for i := range m.data {
		m.data[i] = a.data[i] + b.data[i]
	}
}

// Sub stores a−b into m (m may alias a or b).
func (m *Dense) Sub(a, b *Dense) {
	checkSame("Sub", a, b)
	checkSame("Sub(dst)", m, a)
	for i := range m.data {
		m.data[i] = a.data[i] - b.data[i]
	}
}

// AddScaled stores a + s·b into m (m may alias a or b).
func (m *Dense) AddScaled(a *Dense, s float64, b *Dense) {
	checkSame("AddScaled", a, b)
	checkSame("AddScaled(dst)", m, a)
	for i := range m.data {
		m.data[i] = a.data[i] + s*b.data[i]
	}
}

// Scale stores s·a into m (m may alias a).
func (m *Dense) Scale(s float64, a *Dense) {
	checkSame("Scale", m, a)
	for i := range m.data {
		m.data[i] = s * a.data[i]
	}
}

func checkSame(op string, a, b *Dense) {
	if a.rows != b.rows || a.cols != b.cols {
		panic(dimErr(op, a, b))
	}
}

// Each kernel below is a row function plus one launch: the rows run
// inline when par.Blocks gives one block, and only a launch of several
// blocks builds the closure it hands to par.Run (a closure escapes to the
// heap, and solver sweeps run thousands of launches, nearly all of one
// block).
//
// The row functions of Mul and MulATB pick a body by operand width: the
// solver runs k = 3, so operands exactly 3 wide take a body that walks the
// flat backing slices with its accumulators in locals; every other width
// takes the generic loop. A width-3 body adds the same terms in the same
// order as the generic loop, zero skips included, so both produce the
// same bits.

func mulRange(dst, a, b *Dense, lo, hi int) {
	if a.cols == 3 && b.cols == 3 {
		mulRange3(dst, a, b, lo, hi)
	} else {
		mulRangeAny(dst, a, b, lo, hi)
	}
}

func mulRangeAny(dst, a, b *Dense, lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := a.Row(i)
		mrow := dst.Row(i)
		for j := range mrow {
			mrow[j] = 0
		}
		for p, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(p)
			orow := mrow[:len(brow)]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// mulRange3 is mulRangeAny for an n×3 a and a 3×3 b, b held in locals.
func mulRange3(dst, a, b *Dense, lo, hi int) {
	bd := b.data[:9]
	b00, b01, b02 := bd[0], bd[1], bd[2]
	b10, b11, b12 := bd[3], bd[4], bd[5]
	b20, b21, b22 := bd[6], bd[7], bd[8]
	ad := a.data[3*lo : 3*hi]
	od := dst.data[3*lo : 3*hi]
	od = od[:len(ad)]
	for i := 0; i+2 < len(ad); i += 3 {
		a0, a1, a2 := ad[i], ad[i+1], ad[i+2]
		var o0, o1, o2 float64
		if a0 != 0 {
			o0 += a0 * b00
			o1 += a0 * b01
			o2 += a0 * b02
		}
		if a1 != 0 {
			o0 += a1 * b10
			o1 += a1 * b11
			o2 += a1 * b12
		}
		if a2 != 0 {
			o0 += a2 * b20
			o1 += a2 * b21
			o2 += a2 * b22
		}
		od[i], od[i+1], od[i+2] = o0, o1, o2
	}
}

// Mul stores a·b into m. m must not alias a or b and must be a.rows×b.cols.
// Large products are split across row blocks by package par.
func (m *Dense) Mul(a, b *Dense) {
	if a.cols != b.rows {
		panic(dimErr("Mul", a, b))
	}
	if m.rows != a.rows || m.cols != b.cols {
		panic(fmt.Sprintf("mat: Mul dst is %dx%d, want %dx%d", m.rows, m.cols, a.rows, b.cols))
	}
	if cost := a.cols * b.cols; par.Blocks(a.rows, cost) == 1 {
		mulRange(m, a, b, 0, a.rows)
	} else {
		par.Run(a.rows, cost, func(_, lo, hi int) { mulRange(m, a, b, lo, hi) })
	}
}

// ProductInto stores a·b into dst and returns it; a nil dst allocates.
// Solvers pass workspace matrices here to keep sweeps allocation-free.
func ProductInto(dst *Dense, a, b *Dense) *Dense {
	if dst == nil {
		dst = NewDense(a.rows, b.cols)
	}
	dst.Mul(a, b)
	return dst
}

func mulABTRange(dst, a, b *Dense, lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := a.Row(i)
		mrow := dst.Row(i)
		for j := 0; j < b.rows; j++ {
			brow := b.Row(j)
			var s float64
			for p, av := range arow {
				s += av * brow[p]
			}
			mrow[j] = s
		}
	}
}

// MulABT stores a·bᵀ into m. m must be a.rows×b.rows. Large products are
// split across row blocks by package par.
func (m *Dense) MulABT(a, b *Dense) {
	if a.cols != b.cols {
		panic(dimErr("MulABT", a, b))
	}
	if m.rows != a.rows || m.cols != b.rows {
		panic(fmt.Sprintf("mat: MulABT dst is %dx%d, want %dx%d", m.rows, m.cols, a.rows, b.rows))
	}
	if cost := a.cols * b.rows; par.Blocks(a.rows, cost) == 1 {
		mulABTRange(m, a, b, 0, a.rows)
	} else {
		par.Run(a.rows, cost, func(_, lo, hi int) { mulABTRange(m, a, b, lo, hi) })
	}
}

// MulATB stores aᵀ·b into m. m must be a.cols×b.cols.
//
// The accumulation pattern scatters into output rows indexed by columns of
// a, so a launch of several blocks gives each row block a private
// accumulator and adds them in block order. The blocks depend on the
// operands' shape alone, so the result has the same bits at every
// parallelism width.
func (m *Dense) MulATB(a, b *Dense) {
	if a.rows != b.rows {
		panic(dimErr("MulATB", a, b))
	}
	if m.rows != a.cols || m.cols != b.cols {
		panic(fmt.Sprintf("mat: MulATB dst is %dx%d, want %dx%d", m.rows, m.cols, a.cols, b.cols))
	}
	m.Zero()
	cost := a.cols * b.cols
	nb := par.Blocks(a.rows, cost)
	if nb == 1 {
		mulATBRange(m.data, a, b, 0, a.rows)
		return
	}
	rc := m.rows * m.cols
	parts := make([]float64, nb*rc)
	par.Run(a.rows, cost, func(blk, lo, hi int) {
		mulATBRange(parts[blk*rc:(blk+1)*rc], a, b, lo, hi)
	})
	for b := 0; b < nb; b++ {
		for i, v := range parts[b*rc : (b+1)*rc] {
			m.data[i] += v
		}
	}
}

// mulATBRange accumulates aᵀ·b over rows [lo, hi) of a into the row-major
// dst buffer (a.cols×b.cols).
func mulATBRange(dst []float64, a, b *Dense, lo, hi int) {
	if a.cols == 3 && b.cols == 3 {
		mulATBRange3(dst, a, b, lo, hi)
	} else {
		mulATBRangeAny(dst, a, b, lo, hi)
	}
}

func mulATBRangeAny(dst []float64, a, b *Dense, lo, hi int) {
	cols := b.cols
	for i := lo; i < hi; i++ {
		arow := a.Row(i)
		brow := b.Row(i)
		for p, av := range arow {
			if av == 0 {
				continue
			}
			drow := dst[p*cols : (p+1)*cols][:len(brow)]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// mulATBRange3 is mulATBRangeAny for n×3 a and b, the 3×3 sum held in
// locals.
func mulATBRange3(dst []float64, a, b *Dense, lo, hi int) {
	d := dst[:9]
	d00, d01, d02 := d[0], d[1], d[2]
	d10, d11, d12 := d[3], d[4], d[5]
	d20, d21, d22 := d[6], d[7], d[8]
	ad := a.data[3*lo : 3*hi]
	bd := b.data[3*lo : 3*hi]
	bd = bd[:len(ad)]
	for i := 0; i+2 < len(ad); i += 3 {
		a0, a1, a2 := ad[i], ad[i+1], ad[i+2]
		b0, b1, b2 := bd[i], bd[i+1], bd[i+2]
		if a0 != 0 {
			d00 += a0 * b0
			d01 += a0 * b1
			d02 += a0 * b2
		}
		if a1 != 0 {
			d10 += a1 * b0
			d11 += a1 * b1
			d12 += a1 * b2
		}
		if a2 != 0 {
			d20 += a2 * b0
			d21 += a2 * b1
			d22 += a2 * b2
		}
	}
	d[0], d[1], d[2] = d00, d01, d02
	d[3], d[4], d[5] = d10, d11, d12
	d[6], d[7], d[8] = d20, d21, d22
}

// GramInto stores aᵀ·a, the Gram matrix, into dst (cols×cols) and returns
// it; a nil dst allocates.
func GramInto(dst *Dense, a *Dense) *Dense {
	if dst == nil {
		dst = NewDense(a.cols, a.cols)
	}
	dst.MulATB(a, a)
	return dst
}

// T returns the transpose of m as a new matrix.
func (m *Dense) T() *Dense {
	out := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.data[j*m.rows+i] = v
		}
	}
	return out
}

// FrobeniusSq returns ||m||_F² = Σ m(i,j)².
func (m *Dense) FrobeniusSq() float64 {
	var s float64
	for _, v := range m.data {
		s += v * v
	}
	return s
}

// Frobenius returns the Frobenius norm ||m||_F.
func (m *Dense) Frobenius() float64 { return math.Sqrt(m.FrobeniusSq()) }

// Trace returns the trace of a square matrix.
func (m *Dense) Trace() float64 {
	if m.rows != m.cols {
		panic(fmt.Sprintf("mat: Trace of non-square %dx%d", m.rows, m.cols))
	}
	var s float64
	for i := 0; i < m.rows; i++ {
		s += m.At(i, i)
	}
	return s
}

// Dot returns the Frobenius inner product ⟨a,b⟩ = Σ a(i,j)·b(i,j).
func Dot(a, b *Dense) float64 {
	checkSame("Dot", a, b)
	var s float64
	for i, v := range a.data {
		s += v * b.data[i]
	}
	return s
}

// DiffFrobeniusSq returns ||a−b||_F² without allocating.
func DiffFrobeniusSq(a, b *Dense) float64 {
	checkSame("DiffFrobeniusSq", a, b)
	var s float64
	for i, v := range a.data {
		d := v - b.data[i]
		s += d * d
	}
	return s
}

// SplitPosNegInto splits m into Δ⁺=(|m|+m)/2 and Δ⁻=(|m|−m)/2 so that
// m = Δ⁺ − Δ⁻ with both parts non-negative, writing them into
// caller-provided matrices of m's shape (e.g. workspace scratch). Used by
// the Lagrangian terms in the multiplicative update rules (Eqs. 7, 9, 11,
// 26 of the paper).
func SplitPosNegInto(pos, neg, m *Dense) {
	checkSame("SplitPosNegInto(pos)", pos, m)
	checkSame("SplitPosNegInto(neg)", neg, m)
	for i, v := range m.data {
		// Equivalent to ((|v|+v)/2, (|v|−v)/2) but immune to overflow.
		if v >= 0 {
			pos.data[i] = v
			neg.data[i] = 0
		} else {
			pos.data[i] = 0
			neg.data[i] = -v
		}
	}
}

// Eps is the guard added to denominators in multiplicative updates.
const Eps = 1e-12

// MulUpdate applies the multiplicative update
//
//	dst(i,j) ← dst(i,j) · sqrt( numer(i,j) / (denom(i,j)+Eps) )
//
// clamping negatives in numer/denom to zero first (they can appear from
// floating-point cancellation). This is the shared kernel of every update
// rule in the paper. dst, numer and denom must have equal shape.
func MulUpdate(dst, numer, denom *Dense) {
	checkSame("MulUpdate", numer, denom)
	checkSame("MulUpdate(dst)", dst, numer)
	// The per-element sqrt+div makes this compute-bound enough to split;
	// cost 8 ≈ scalar-op equivalent of one sqrt+div pair.
	if n := len(dst.data); par.Blocks(n, 8) == 1 {
		mulUpdateRange(dst, numer, denom, 0, n)
	} else {
		par.Run(n, 8, func(_, lo, hi int) { mulUpdateRange(dst, numer, denom, lo, hi) })
	}
}

func mulUpdateRange(dst, numer, denom *Dense, lo, hi int) {
	for i := lo; i < hi; i++ {
		n := numer.data[i]
		if n < 0 {
			n = 0
		}
		d := denom.data[i]
		if d < 0 {
			d = 0
		}
		dst.data[i] *= math.Sqrt(n / (d + Eps))
	}
}

// ClampNonNegative zeroes any negative entries (defensive; multiplicative
// updates preserve non-negativity but external initializers may not).
func (m *Dense) ClampNonNegative() {
	for i, v := range m.data {
		if v < 0 {
			m.data[i] = 0
		}
	}
}

// RowArgMax returns, for each row, the index of its largest element.
// Ties resolve to the lowest index. Rows of an r×0 matrix map to -1.
func (m *Dense) RowArgMax() []int {
	out := make([]int, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		if len(row) == 0 {
			out[i] = -1
			continue
		}
		best, bi := row[0], 0
		for j, v := range row[1:] {
			if v > best {
				best, bi = v, j+1
			}
		}
		out[i] = bi
	}
	return out
}

// NormalizeRowsL1 scales each row to sum to 1; all-zero rows become uniform.
func (m *Dense) NormalizeRowsL1() {
	if m.cols == 0 {
		return
	}
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		var s float64
		for _, v := range row {
			s += v
		}
		if s == 0 {
			u := 1.0 / float64(m.cols)
			for j := range row {
				row[j] = u
			}
			continue
		}
		inv := 1.0 / s
		for j := range row {
			row[j] *= inv
		}
	}
}

// IsFinite reports whether every element is finite (no NaN/Inf).
func (m *Dense) IsFinite() bool {
	for _, v := range m.data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// Equal reports whether a and b have the same shape and all elements are
// within tol of each other.
func Equal(a, b *Dense, tol float64) bool {
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	for i, v := range a.data {
		if math.Abs(v-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders the matrix for debugging; large matrices are elided.
func (m *Dense) String() string {
	const maxShow = 8
	var b strings.Builder
	fmt.Fprintf(&b, "Dense %dx%d", m.rows, m.cols)
	if m.rows > maxShow || m.cols > maxShow {
		return b.String()
	}
	for i := 0; i < m.rows; i++ {
		b.WriteString("\n  ")
		for j := 0; j < m.cols; j++ {
			fmt.Fprintf(&b, "% .4f ", m.At(i, j))
		}
	}
	return b.String()
}
