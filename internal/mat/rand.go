package mat

import "math/rand"

// RandomNonNegative returns a rows×cols matrix with entries drawn uniformly
// from (lo, hi], lo ≥ 0. Multiplicative updates keep zero entries at zero
// forever, so initializers must be strictly positive; callers should pass
// lo > 0 (the constructor enforces a tiny floor regardless).
func RandomNonNegative(rng *rand.Rand, rows, cols int, lo, hi float64) *Dense {
	if lo < 0 || hi < lo {
		panic("mat: RandomNonNegative requires 0 <= lo <= hi")
	}
	const floor = 1e-8
	m := NewDense(rows, cols)
	for i := range m.data {
		v := lo + rng.Float64()*(hi-lo)
		if v < floor {
			v = floor
		}
		m.data[i] = v
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// FromRows builds a matrix from row slices. All rows must share a length;
// an empty input yields a 0×0 matrix.
func FromRows(rows [][]float64) *Dense {
	if len(rows) == 0 {
		return NewDense(0, 0)
	}
	cols := len(rows[0])
	m := NewDense(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			panic("mat: FromRows ragged input")
		}
		copy(m.Row(i), r)
	}
	return m
}

// PerturbPositive adds uniform noise from (0, scale] to every entry,
// keeping the matrix strictly positive. Useful to restart factors that
// collapsed to zero columns.
func PerturbPositive(rng *rand.Rand, m *Dense, scale float64) {
	for i := range m.data {
		m.data[i] += rng.Float64() * scale
	}
}
