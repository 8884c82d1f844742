package sparse

import (
	"fmt"
)

// COO is a mutable coordinate-format builder for CSR matrices. Duplicate
// (i, j) entries are summed during conversion, so callers can accumulate
// counts (e.g. term frequencies) by repeated Add calls.
//
// A builder can be recycled across batches with Reset, and can emit into
// a reusable CSR with ToCSRInto; together they make repeated graph
// construction allocation-free once buffers reach their steady size.
type COO struct {
	rows, cols int
	is, js     []int
	vs         []float64
	next       []int // scratch row cursors for ToCSRInto
}

// Reset clears the builder for reuse with new dimensions, keeping the
// accumulated triplet capacity.
func (b *COO) Reset(rows, cols int) {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("sparse: invalid dimensions %dx%d", rows, cols))
	}
	b.rows, b.cols = rows, cols
	b.is, b.js, b.vs = b.is[:0], b.js[:0], b.vs[:0]
}

// NewCOO returns an empty rows×cols builder.
func NewCOO(rows, cols int) *COO {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("sparse: invalid dimensions %dx%d", rows, cols))
	}
	return &COO{rows: rows, cols: cols}
}

// Add accumulates v at (i, j). Zero values are skipped.
func (b *COO) Add(i, j int, v float64) {
	if i < 0 || i >= b.rows || j < 0 || j >= b.cols {
		panic(fmt.Sprintf("sparse: Add(%d,%d) out of range %dx%d", i, j, b.rows, b.cols))
	}
	if v == 0 {
		return
	}
	b.is = append(b.is, i)
	b.js = append(b.js, j)
	b.vs = append(b.vs, v)
}

// ToCSR converts the accumulated triplets to CSR, summing duplicates and
// dropping entries that cancel to exactly zero. The builder remains
// usable. It shares ToCSRInto's conversion so every path sums duplicates
// in the same deterministic order.
func (b *COO) ToCSR() *CSR {
	return b.ToCSRInto(nil)
}

// ToCSRInto converts the accumulated triplets to CSR like ToCSR, but
// reuses dst's backing storage (a nil dst allocates one). Duplicates are
// summed in row-major scatter order — deterministic for a given Add
// sequence — and entries that cancel to exactly zero are dropped. The
// builder remains usable; dst must not be the output of a previous
// conversion still in use.
func (b *COO) ToCSRInto(dst *CSR) *CSR {
	if dst == nil {
		dst = &CSR{}
	}
	n := len(b.vs)
	dst.rows, dst.cols = b.rows, b.cols
	dst.rowPtr = growInts(dst.rowPtr, b.rows+1)
	dst.colIdx = growInts(dst.colIdx, n)
	dst.val = growFloats(dst.val, n)
	b.next = growInts(b.next, b.rows)

	// Counting sort by row: starts in rowPtr[0..rows-1], cursors in next.
	for i := range b.next {
		b.next[i] = 0
	}
	for _, i := range b.is {
		b.next[i]++
	}
	start := 0
	for i := 0; i < b.rows; i++ {
		dst.rowPtr[i] = start
		start += b.next[i]
		b.next[i] = dst.rowPtr[i]
	}
	dst.rowPtr[b.rows] = n
	for p, i := range b.is {
		pos := b.next[i]
		b.next[i]++
		dst.colIdx[pos] = b.js[p]
		dst.val[pos] = b.vs[p]
	}

	// Per row: sort by column, merge duplicates, drop exact zeros,
	// compacting in place (the write cursor never passes the read one).
	w := 0
	for i := 0; i < b.rows; i++ {
		lo := dst.rowPtr[i]
		hi := n
		if i+1 < b.rows {
			hi = dst.rowPtr[i+1]
		}
		sortColVal(dst.colIdx[lo:hi], dst.val[lo:hi])
		dst.rowPtr[i] = w
		for p := lo; p < hi; {
			j := dst.colIdx[p]
			sum := dst.val[p]
			p++
			for p < hi && dst.colIdx[p] == j {
				sum += dst.val[p]
				p++
			}
			if sum == 0 {
				continue
			}
			dst.colIdx[w] = j
			dst.val[w] = sum
			w++
		}
	}
	dst.rowPtr[b.rows] = w
	dst.colIdx = dst.colIdx[:w]
	dst.val = dst.val[:w]
	return dst
}

// sortColVal sorts the (col, val) pairs by column: insertion sort for the
// short rows that dominate tweet graphs, an in-place quicksort above
// that. No allocation either way.
func sortColVal(cols []int, vals []float64) {
	for len(cols) > 24 {
		// Median-of-three pivot, Hoare partition; recurse on the smaller
		// half so stack depth stays logarithmic.
		mid := len(cols) / 2
		last := len(cols) - 1
		if cols[mid] < cols[0] {
			cols[mid], cols[0] = cols[0], cols[mid]
			vals[mid], vals[0] = vals[0], vals[mid]
		}
		if cols[last] < cols[0] {
			cols[last], cols[0] = cols[0], cols[last]
			vals[last], vals[0] = vals[0], vals[last]
		}
		if cols[last] < cols[mid] {
			cols[last], cols[mid] = cols[mid], cols[last]
			vals[last], vals[mid] = vals[mid], vals[last]
		}
		pivot := cols[mid]
		i, j := 0, last
		for {
			for cols[i] < pivot {
				i++
			}
			for cols[j] > pivot {
				j--
			}
			if i >= j {
				break
			}
			cols[i], cols[j] = cols[j], cols[i]
			vals[i], vals[j] = vals[j], vals[i]
			i++
			j--
		}
		if j+1 < len(cols)-j-1 {
			sortColVal(cols[:j+1], vals[:j+1])
			cols, vals = cols[j+1:], vals[j+1:]
		} else {
			sortColVal(cols[j+1:], vals[j+1:])
			cols, vals = cols[:j+1], vals[:j+1]
		}
	}
	for p := 1; p < len(cols); p++ {
		c, v := cols[p], vals[p]
		q := p - 1
		for q >= 0 && cols[q] > c {
			cols[q+1], vals[q+1] = cols[q], vals[q]
			q--
		}
		cols[q+1], vals[q+1] = c, v
	}
}

// growInts returns s with length n, reusing its backing array when large
// enough (contents unspecified).
func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// growFloats is growInts for float64 slices.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// FromDenseRows builds a CSR matrix from a row-major dense [][]float64,
// storing only non-zero entries. Intended for tests.
func FromDenseRows(rows [][]float64) *CSR {
	if len(rows) == 0 {
		return Zeros(0, 0)
	}
	cols := len(rows[0])
	b := NewCOO(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			panic("sparse: FromDenseRows ragged input")
		}
		for j, v := range r {
			b.Add(i, j, v)
		}
	}
	return b.ToCSR()
}
