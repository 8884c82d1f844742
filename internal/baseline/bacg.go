package baseline

import (
	"triclust/internal/core"
	"triclust/internal/sparse"
)

// BACGOptions configure the BACG baseline.
type BACGOptions struct {
	// Beta weighs the structure (user-graph) term against the content
	// (user-feature) term.
	Beta    float64
	MaxIter int
	Tol     float64
	Seed    int64
}

// DefaultBACGOptions returns β=0.8 to match the paper's graph weighting.
func DefaultBACGOptions() BACGOptions {
	return BACGOptions{Beta: 0.8, MaxIter: 100, Tol: 1e-4, Seed: 1}
}

// BACG reproduces the behaviour of Xu et al. [34]'s model-based attributed
// graph clustering as used in Table 5: users are clustered from *both*
// structure (the user–user retweet graph) and content (their feature
// vectors), with no sentiment lexicon and no tweet layer. Concretely it
// minimizes ‖Xu − SuHuSfᵀ‖² + β·tr(SuᵀLuSu) — graph-regularized NMF on the
// user–feature matrix. Cluster ids carry no class semantics; evaluation
// maps them by majority vote exactly as for any unsupervised method.
func BACG(xu *sparse.CSR, gu *sparse.CSR, k int, opts BACGOptions) ([]int, *core.Result, error) {
	p := &core.Problem{
		Xp: sparse.Zeros(0, xu.Cols()),
		Xu: xu,
		Xr: sparse.Zeros(xu.Rows(), 0),
		Gu: gu,
	}
	cfg := core.Config{
		K:           k,
		Alpha:       0,
		Beta:        opts.Beta,
		MaxIter:     opts.MaxIter,
		Tol:         opts.Tol,
		Seed:        opts.Seed,
		LexiconInit: false,
	}
	res, err := core.FitOffline(p, cfg)
	if err != nil {
		return nil, nil, err
	}
	return res.UserClusters(), res, nil
}
