package baseline

import (
	"triclust/internal/mat"
	"triclust/internal/par"
	"triclust/internal/sparse"
)

// UserRegOptions configure the UserReg-style semi-supervised method.
type UserRegOptions struct {
	// Mu balances content evidence against the user-consistency prior
	// (higher = trust the user aggregate more).
	Mu float64
	// Iterations is the number of alternating refinement sweeps.
	Iterations int
	// SVM trains the base tweet classifier.
	SVM SVMOptions
}

// DefaultUserRegOptions returns μ=0.5, 10 sweeps.
func DefaultUserRegOptions() UserRegOptions {
	return UserRegOptions{Mu: 0.5, Iterations: 10, SVM: DefaultSVMOptions()}
}

// UserRegResult carries both prediction levels.
type UserRegResult struct {
	TweetClasses []int
	UserClasses  []int
}

// UserReg reproduces the behaviour of Deng et al. [7]: a base classifier
// trained on the revealed tweet labels produces per-tweet scores, which
// are then regularized so that tweets of the same user agree ("two posts
// created by the same user have similar sentiments"); user-level sentiment
// is the aggregation of the user's tweet sentiments (the assumption the
// paper argues is biased — Table 5 discussion).
//
// The refinement sweeps run on the parallel row-chunk kernel: the user
// aggregation is a gather over a prebuilt user→tweets index (each user row
// is owned by exactly one chunk, so no scatter races and the result is
// independent of the chunking), and the tweet update parallelizes over
// tweet rows.
//
// xp is the n×l tweet–feature matrix; revealed holds the training labels
// (−1 hidden); owner[i] is the user of tweet i; numUsers is m.
func UserReg(xp *sparse.CSR, revealed, owner []int, numUsers, k int, opts UserRegOptions) *UserRegResult {
	n := xp.Rows()
	if len(revealed) != n || len(owner) != n {
		panic("baseline: UserReg input length mismatch")
	}
	if opts.Iterations <= 0 {
		opts.Iterations = 10
	}

	// Base content scores from a supervised classifier on the revealed
	// subset, squashed to per-class probabilities.
	svm := TrainSVM(xp, revealed, k, opts.SVM)
	scores := mat.NewDense(n, k)
	scoreCost := k * (4 + xp.NNZ()/maxInt(1, n))
	par.Run(n, scoreCost, func(_, lo, hi int) {
		s := make([]float64, k)
		for i := lo; i < hi; i++ {
			cols, vals := xp.Row(i)
			svm.ScoreInto(s, cols, vals)
			row := scores.Row(i)
			// Softmax-free squash: shift to non-negative and normalize.
			minV := s[0]
			for _, v := range s[1:] {
				if v < minV {
					minV = v
				}
			}
			var sum float64
			for c, v := range s {
				row[c] = v - minV + 1e-9
				sum += row[c]
			}
			for c := range row {
				row[c] /= sum
			}
		}
	})

	// Prebuilt user→tweets index (CSR-style) so the aggregation sweep is
	// a race-free parallel gather over users.
	tweetsOf, starts := invertOwners(owner, numUsers, n)

	// Alternate: user distribution = mean of tweet distributions;
	// tweet distribution = (1−μ)·content + μ·user prior; seeds clamped.
	tweet := scores.Clone()
	user := mat.NewDense(numUsers, k)
	avgTweetsPerUser := n / maxInt(1, numUsers)
	for it := 0; it < opts.Iterations; it++ {
		par.Run(numUsers, k*(1+avgTweetsPerUser), func(_, lo, hi int) {
			for u := lo; u < hi; u++ {
				urow := user.Row(u)
				for c := range urow {
					urow[c] = 0
				}
				mine := tweetsOf[starts[u]:starts[u+1]]
				for _, i := range mine {
					trow := tweet.Row(i)
					for c := range urow {
						urow[c] += trow[c]
					}
				}
				if len(mine) > 0 {
					inv := 1 / float64(len(mine))
					for c := range urow {
						urow[c] *= inv
					}
				}
			}
		})
		par.Run(n, 3*k, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				trow := tweet.Row(i)
				if c := revealed[i]; c >= 0 && c < k {
					for q := range trow {
						trow[q] = 0
					}
					trow[c] = 1
					continue
				}
				srow := scores.Row(i)
				u := owner[i]
				for q := range trow {
					prior := 0.0
					if u >= 0 && u < numUsers {
						prior = user.At(u, q)
					}
					trow[q] = (1-opts.Mu)*srow[q] + opts.Mu*prior
				}
			}
		})
	}

	res := &UserRegResult{
		TweetClasses: tweet.RowArgMax(),
		UserClasses:  user.RowArgMax(),
	}
	return res
}

// invertOwners builds the user→tweets adjacency: tweets of user u are
// tweetsOf[starts[u]:starts[u+1]], in tweet order. Tweets with an
// out-of-range owner are dropped.
func invertOwners(owner []int, numUsers, n int) (tweetsOf, starts []int) {
	starts = make([]int, numUsers+1)
	for _, u := range owner {
		if u >= 0 && u < numUsers {
			starts[u+1]++
		}
	}
	for u := 0; u < numUsers; u++ {
		starts[u+1] += starts[u]
	}
	tweetsOf = make([]int, starts[numUsers])
	next := append([]int(nil), starts[:numUsers]...)
	for i, u := range owner {
		if u >= 0 && u < numUsers {
			tweetsOf[next[u]] = i
			next[u]++
		}
	}
	return tweetsOf, starts
}
