package baseline

import (
	"math"
	"math/rand"

	"triclust/internal/par"
	"triclust/internal/sparse"
)

// KMeansOptions configure spherical k-means.
type KMeansOptions struct {
	// MaxIter bounds the Lloyd iterations.
	MaxIter int
	// Restarts picks the best of several random initializations.
	Restarts int
	// Seed drives initialization.
	Seed int64
}

// DefaultKMeansOptions returns 50 iterations × 4 restarts.
func DefaultKMeansOptions() KMeansOptions {
	return KMeansOptions{MaxIter: 50, Restarts: 4, Seed: 1}
}

// KMeans clusters the rows of a sparse matrix with spherical k-means
// (cosine similarity), the classical document-clustering baseline the
// NMF literature compares against (ONMTF [9] is evaluated against it in
// the ESSA paper). Empty rows are assigned cluster 0. Returns per-row
// cluster ids in [0, k).
func KMeans(x *sparse.CSR, k int, opts KMeansOptions) []int {
	n, l := x.Rows(), x.Cols()
	if opts.MaxIter <= 0 {
		opts.MaxIter = 50
	}
	if opts.Restarts <= 0 {
		opts.Restarts = 1
	}
	if n == 0 || k <= 0 {
		return make([]int, n)
	}
	rng := rand.New(rand.NewSource(opts.Seed))

	// Pre-normalized rows (L2) for cosine similarity.
	norms := make([]float64, n)
	for i := 0; i < n; i++ {
		_, vals := x.Row(i)
		var s float64
		for _, v := range vals {
			s += v * v
		}
		norms[i] = math.Sqrt(s)
	}

	bestAssign := make([]int, n)
	bestScore := math.Inf(-1)
	// All loop state is hoisted out of the restart/iteration loops so the
	// Lloyd iterations allocate nothing.
	centroids := make([][]float64, k)
	backing := make([]float64, k*l)
	for c := 0; c < k; c++ {
		centroids[c] = backing[c*l : (c+1)*l]
	}
	assign := make([]int, n)
	counts := make([]int, k)
	// Per-block partials of the assignment step (see assignRows).
	cost := k * (x.NNZ()/max(n, 1) + 1)
	nb := par.Blocks(n, cost)
	partScore, partChanged := make([]float64, nb), make([]bool, nb)

	for restart := 0; restart < opts.Restarts; restart++ {
		// Initialize centroids from random distinct rows.
		for c := 0; c < k; c++ {
			for j := range centroids[c] {
				centroids[c][j] = 0
			}
			i := rng.Intn(n)
			cols, vals := x.Row(i)
			if norms[i] > 0 {
				for p, j := range cols {
					centroids[c][j] = vals[p] / norms[i]
				}
			} else {
				centroids[c][rng.Intn(l)] = 1
			}
		}
		var score float64
		for it := 0; it < opts.MaxIter; it++ {
			var changed bool
			score, changed = assignRows(x, cost, norms, centroids, assign, partScore, partChanged)
			if !changed && it > 0 {
				break
			}
			// Update step: mean of normalized member rows, re-normalized.
			for c := 0; c < k; c++ {
				for j := range centroids[c] {
					centroids[c][j] = 0
				}
			}
			for c := range counts {
				counts[c] = 0
			}
			for i := 0; i < n; i++ {
				c := assign[i]
				counts[c]++
				if norms[i] == 0 {
					continue
				}
				cols, vals := x.Row(i)
				for p, j := range cols {
					centroids[c][j] += vals[p] / norms[i]
				}
			}
			for c := 0; c < k; c++ {
				if counts[c] == 0 {
					// Re-seed an empty cluster.
					i := rng.Intn(n)
					cols, vals := x.Row(i)
					for j := range centroids[c] {
						centroids[c][j] = 0
					}
					if norms[i] > 0 {
						for p, j := range cols {
							centroids[c][j] = vals[p] / norms[i]
						}
					}
					continue
				}
				var s float64
				for _, v := range centroids[c] {
					s += v * v
				}
				if s > 0 {
					inv := 1 / math.Sqrt(s)
					for j := range centroids[c] {
						centroids[c][j] *= inv
					}
				}
			}
		}
		if score > bestScore {
			bestScore = score
			copy(bestAssign, assign)
		}
	}
	return bestAssign
}

// assignRows is the assignment step: it moves each row of x to its most
// cosine-similar centroid and returns the summed best similarity and
// whether any row moved. Rows are independent, so par.Run splits them at
// costPerRow; the score and the changed flag reduce over one partial per
// par.Blocks block, held in partScore and partChanged and combined in
// block order. The blocks depend on the shape alone, so the score has the
// same bits at every parallelism width.
func assignRows(x *sparse.CSR, costPerRow int, norms []float64, centroids [][]float64, assign []int, partScore []float64, partChanged []bool) (score float64, changed bool) {
	par.Run(x.Rows(), costPerRow, func(blk, lo, hi int) {
		var sum float64
		var moved bool
		for i := lo; i < hi; i++ {
			cols, vals := x.Row(i)
			best, bestSim := 0, math.Inf(-1)
			for c, cent := range centroids {
				var dot float64
				for p, j := range cols {
					dot += vals[p] * cent[j]
				}
				if norms[i] > 0 {
					dot /= norms[i]
				}
				if dot > bestSim {
					best, bestSim = c, dot
				}
			}
			if assign[i] != best {
				assign[i] = best
				moved = true
			}
			sum += bestSim
		}
		partScore[blk] = sum
		partChanged[blk] = moved
	})
	for b, s := range partScore {
		score += s
		changed = changed || partChanged[b]
	}
	return score, changed
}
