package core

import (
	"fmt"

	"triclust/internal/mat"
	"triclust/internal/sparse"
)

// FoldInTweets classifies tweets that were not part of the fitted corpus
// without re-running the solver, by projecting their feature rows onto the
// learned feature space:
//
//	Sp_new = normalize(Xp_new · Sf · Hpᵀ)
//
// This is the standard NMF fold-in: with Sf and Hp fixed, the
// least-squares-optimal non-negative membership of a new row x is
// approximated by one multiplicative step from a uniform start, which for
// a single row reduces to the projection above. xpNew must have the same
// feature dimension as the training corpus.
func FoldInTweets(f *Factors, xpNew *sparse.CSR) (*mat.Dense, error) {
	if xpNew.Cols() != f.Sf.Rows() {
		return nil, fmt.Errorf("core: fold-in features %d != trained %d", xpNew.Cols(), f.Sf.Rows())
	}
	proj := mat.NewDense(f.Sf.Rows(), f.Sf.Cols())
	proj.MulABT(f.Sf, f.Hp) // l×k: Sf·Hpᵀ
	sp := xpNew.MulDense(proj)
	sp.ClampNonNegative()
	sp.NormalizeRowsL1()
	return sp, nil
}
