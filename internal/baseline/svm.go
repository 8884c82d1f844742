package baseline

import (
	"math"
	"math/rand"

	"triclust/internal/par"
	"triclust/internal/sparse"
)

// SVM is a one-vs-rest linear SVM trained with the Pegasos stochastic
// sub-gradient method (Smith et al. [28] use a linear SVM on tweet
// features; Pegasos reproduces it without external solvers).
type SVM struct {
	k int
	w [][]float64 // [class][feature]
	b []float64
}

// SVMOptions configure training.
type SVMOptions struct {
	// Lambda is the L2 regularization strength.
	Lambda float64
	// Epochs is the number of passes over the labeled rows.
	Epochs int
	// Seed drives the sampling order.
	Seed int64
}

// DefaultSVMOptions returns λ=1e-4, 12 epochs.
func DefaultSVMOptions() SVMOptions { return SVMOptions{Lambda: 1e-4, Epochs: 12, Seed: 1} }

// TrainSVM fits k one-vs-rest hyperplanes on the rows with label ≥ 0.
//
// The shrink step (1−ηλ)·w is applied lazily through a per-class scale
// factor, so one stochastic step costs O(k·nnz(row)) instead of the
// O(k·l) dense rescan of the naive implementation — on tweet matrices
// (nnz/row ≪ l) this is the difference that made Table5UserComparison
// SVM-bound. The learned hyperplanes are mathematically identical to the
// eager form (the scale is folded back in before returning).
func TrainSVM(x *sparse.CSR, labels []int, k int, opts SVMOptions) *SVM {
	if len(labels) != x.Rows() {
		panic("baseline: labels length mismatch")
	}
	if opts.Lambda <= 0 {
		opts.Lambda = 1e-4
	}
	if opts.Epochs <= 0 {
		opts.Epochs = 12
	}
	var rows []int
	for i, c := range labels {
		if c >= 0 && c < k {
			rows = append(rows, i)
		}
	}
	m := &SVM{k: k, w: make([][]float64, k), b: make([]float64, k)}
	for c := range m.w {
		m.w[c] = make([]float64, x.Cols())
	}
	if len(rows) == 0 {
		return m
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	// scale[c] carries the accumulated shrink of class c's hyperplane:
	// the true weights are scale[c]·w[c].
	scale := make([]float64, k)
	for c := range scale {
		scale[c] = 1
	}
	t := 1
	steps := opts.Epochs * len(rows)
	for s := 0; s < steps; s++ {
		i := rows[rng.Intn(len(rows))]
		cols, vals := x.Row(i)
		eta := 1 / (opts.Lambda * float64(t))
		shrink := 1 - eta*opts.Lambda
		t++
		for c := 0; c < k; c++ {
			y := -1.0
			if labels[i] == c {
				y = 1.0
			}
			// margin = y(scale·w·x + b)
			wc := m.w[c]
			var dot float64
			for p, j := range cols {
				dot += wc[j] * vals[p]
			}
			margin := y * (scale[c]*dot + m.b[c])
			// w ← (1 − ηλ)w [+ ηy·x if margin < 1], shrink applied lazily.
			if shrink <= 0 {
				// Only at t = 1, where the eager update zeroes w.
				for j := range wc {
					wc[j] = 0
				}
				scale[c] = 1
			} else {
				scale[c] *= shrink
				if scale[c] < 1e-120 {
					// Fold a tiny scale back in before it underflows.
					for j := range wc {
						wc[j] *= scale[c]
					}
					scale[c] = 1
				}
			}
			if margin < 1 {
				inv := eta * y / scale[c]
				for p, j := range cols {
					wc[j] += inv * vals[p]
				}
				m.b[c] += eta * y * 0.1 // damped bias update
			}
		}
	}
	// Materialize the true hyperplanes so Score stays a plain dot product.
	for c := range m.w {
		if scale[c] != 1 {
			wc := m.w[c]
			for j := range wc {
				wc[j] *= scale[c]
			}
		}
	}
	return m
}

// ScoreInto writes the raw decision values of one row into dst (length k).
func (m *SVM) ScoreInto(dst []float64, cols []int, vals []float64) {
	for c := 0; c < m.k; c++ {
		s := m.b[c]
		wc := m.w[c]
		for p, j := range cols {
			s += wc[j] * vals[p]
		}
		dst[c] = s
	}
}

// Predict classifies every row of x by the largest decision value. Rows
// are scored on the parallel row-block kernel; the output is independent
// of the blocking.
func (m *SVM) Predict(x *sparse.CSR) []int {
	out := make([]int, x.Rows())
	cost := m.k * (2 + x.NNZ()/maxInt(1, x.Rows()))
	par.Run(x.Rows(), cost, func(_, lo, hi int) {
		scores := make([]float64, m.k)
		for i := lo; i < hi; i++ {
			cols, vals := x.Row(i)
			m.ScoreInto(scores, cols, vals)
			best, bestV := 0, math.Inf(-1)
			for c, v := range scores {
				if v > bestV {
					best, bestV = c, v
				}
			}
			out[i] = best
		}
	})
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
