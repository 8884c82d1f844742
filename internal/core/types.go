// Package core implements the paper's primary contribution: the offline
// tri-clustering framework (Algorithm 1; Eqs. 1, 7, 9, 11, 12, 13) and the
// online dynamic tri-clustering framework (Algorithm 2; Eqs. 19–26), both
// solved by analytical multiplicative update rules. The offline objective
// (Eq. 1) has five terms, the online one (Eq. 19) adds the temporal user
// term, and Config has no knob that adds a seventh.
//
// The paper's monotone-objective guarantee does not hold as stated: its
// auxiliary-function argument fixes the Lagrange multiplier Δ, and the
// rules evaluate Δ at the current iterate. On small generated problems the
// objective rises by up to 9 % from one sweep to the next offline and 53 %
// online (TestOfflineUpdateProperties, TestOnlineUpdateProperties). What
// holds is a bound on the rise per sweep of 2 %, on the fixture corpora
// only (TestFitOfflineObjectiveNonIncreasing,
// TestOnlineStepObjectiveNonIncreasing).
package core

import (
	"fmt"
	"math/rand"
	"sync"

	"triclust/internal/mat"
	"triclust/internal/sparse"
)

// Problem bundles the inputs of the offline objective (Eq. 1).
//
// The matrices are treated as immutable once a solver starts: the hot
// update rules consume cached transposes of Xp, Xu and Xr (see XpT),
// computed lazily on first use, so mutating the inputs mid-solve would
// desynchronize the caches.
type Problem struct {
	// Xp is the n×l tweet–feature matrix.
	Xp *sparse.CSR
	// Xu is the m×l user–feature matrix.
	Xu *sparse.CSR
	// Xr is the m×n user–tweet matrix.
	Xr *sparse.CSR
	// Gu is the m×m symmetric user–user retweet graph (may be nil when
	// β = 0).
	Gu *sparse.CSR
	// Sf0 is the l×k feature-sentiment prior (sentiment lexicon rows).
	Sf0 *mat.Dense

	// Lazily cached derived data. Every mᵀ·b the update rules need is a
	// racy scatter in CSR form; against the cached transpose it becomes a
	// gather (MulDenseInto) that parallelizes over row chunks — and the
	// transposition cost is paid once per problem instead of per sweep.
	derived  sync.Once
	xpT, xuT *sparse.CSR
	xrT      *sparse.CSR
	guDeg    []float64
	// ‖Xp‖², ‖Xu‖², ‖Xr‖²: the constant part of each data residual and
	// the scale regScales sets the regularizers on.
	xpSq, xuSq, xrSq float64
	// scratch survives Reset so a Problem reused across a session's
	// batches retransposes into the same backing arrays instead of
	// reallocating them.
	scratch *problemScratch
}

// problemScratch holds the reusable backing of the derived caches.
type problemScratch struct {
	xpT, xuT, xrT sparse.CSR
	cursor        []int
	guDeg         []float64
}

func (p *Problem) derive() {
	p.derived.Do(func() {
		if p.scratch == nil {
			p.scratch = &problemScratch{}
		}
		s := p.scratch
		p.xpT = p.Xp.TransposeInto(&s.xpT, &s.cursor)
		p.xuT = p.Xu.TransposeInto(&s.xuT, &s.cursor)
		p.xrT = p.Xr.TransposeInto(&s.xrT, &s.cursor)
		if p.Gu != nil {
			p.guDeg = p.Gu.RowSumsInto(s.guDeg)
			s.guDeg = p.guDeg
		}
		p.xpSq, p.xuSq, p.xrSq = p.Xp.FrobeniusSq(), p.Xu.FrobeniusSq(), p.Xr.FrobeniusSq()
	})
}

// Reset repoints the problem at a new set of input matrices and clears
// every lazily derived cache (keeping its backing storage for reuse), so
// one Problem value can be reused across the snapshots of a long-lived
// session without per-batch allocation of the scaffolding. The previous
// inputs are released.
func (p *Problem) Reset(xp, xu, xr, gu *sparse.CSR, sf0 *mat.Dense) {
	scratch := p.scratch
	*p = Problem{Xp: xp, Xu: xu, Xr: xr, Gu: gu, Sf0: sf0, scratch: scratch}
}

// XpT returns the cached transpose of Xp (l×n).
func (p *Problem) XpT() *sparse.CSR { p.derive(); return p.xpT }

// XuT returns the cached transpose of Xu (l×m).
func (p *Problem) XuT() *sparse.CSR { p.derive(); return p.xuT }

// XrT returns the cached transpose of Xr (n×m).
func (p *Problem) XrT() *sparse.CSR { p.derive(); return p.xrT }

// GuDegrees returns the cached degree vector of Gu (nil when Gu is nil).
func (p *Problem) GuDegrees() []float64 { p.derive(); return p.guDeg }

// dataNormsSq returns the cached ‖Xp‖², ‖Xu‖² and ‖Xr‖².
func (p *Problem) dataNormsSq() (xp, xu, xr float64) {
	p.derive()
	return p.xpSq, p.xuSq, p.xrSq
}

// Validate checks dimension consistency.
func (p *Problem) Validate(k int) error {
	n, l := p.Xp.Rows(), p.Xp.Cols()
	m := p.Xu.Rows()
	if p.Xu.Cols() != l {
		return fmt.Errorf("core: Xu has %d features, Xp has %d", p.Xu.Cols(), l)
	}
	if p.Xr.Rows() != m || p.Xr.Cols() != n {
		return fmt.Errorf("core: Xr is %dx%d, want %dx%d", p.Xr.Rows(), p.Xr.Cols(), m, n)
	}
	if p.Gu != nil && (p.Gu.Rows() != m || p.Gu.Cols() != m) {
		return fmt.Errorf("core: Gu is %dx%d, want %dx%d", p.Gu.Rows(), p.Gu.Cols(), m, m)
	}
	if p.Sf0 != nil && (!p.Sf0.Dims(l, k)) {
		return fmt.Errorf("core: Sf0 is %dx%d, want %dx%d", p.Sf0.Rows(), p.Sf0.Cols(), l, k)
	}
	if k < 1 {
		return fmt.Errorf("core: k = %d", k)
	}
	return nil
}

// Config holds the hyper-parameters shared by the offline and online
// solvers.
type Config struct {
	// K is the number of sentiment classes (2 or 3 in the paper).
	K int
	// Alpha ∈ [0,1] weighs the feature-lexicon regularizer
	// α‖Sf − Sf0‖² *relative to the data terms*: the solvers scale it
	// internally so that α = 1 makes the regularizer comparable to one
	// data-fidelity term (see regScales).
	Alpha float64
	// Beta ∈ [0,1] weighs the user-graph regularizer β·tr(SuᵀLuSu),
	// relative like Alpha.
	Beta float64
	// MaxIter bounds the multiplicative update sweeps (paper: r≈10–100).
	MaxIter int
	// Tol stops iteration when the relative objective change drops
	// below it. Zero selects the default (1e-4); a negative value
	// disables the convergence check so exactly MaxIter sweeps run.
	Tol float64
	// Seed drives factor initialization.
	Seed int64
	// LexiconInit seeds Sp and Su from lexicon votes (Xp·Sf0, Xu·Sf0)
	// instead of pure random, aligning cluster j with sentiment class j.
	LexiconInit bool
}

// DefaultConfig returns the configuration used in the paper's offline
// experiments: k = 3, α = 0.05, β = 0.8 (§5.1: "to balance between the
// tweet-level performance and user-level performance").
func DefaultConfig() Config {
	return Config{
		K:           3,
		Alpha:       0.05,
		Beta:        0.8,
		MaxIter:     100,
		Tol:         1e-4,
		Seed:        1,
		LexiconInit: true,
	}
}

func (c Config) withDefaults() Config {
	if c.K == 0 {
		c.K = 3
	}
	if c.MaxIter == 0 {
		c.MaxIter = 100
	}
	if c.Tol == 0 {
		c.Tol = 1e-4
	}
	return c
}

// Factors are the five factor matrices of the tri-factorization.
type Factors struct {
	// Sp (n×k), Su (m×k), Sf (l×k) are the tweet, user, and feature
	// cluster-membership matrices.
	Sp, Su, Sf *mat.Dense
	// Hp, Hu (k×k) are the tweet-class and user-class association cores.
	Hp, Hu *mat.Dense
}

// LossBreakdown records every term of the objective at one iteration.
// The first three fields are squared Frobenius residuals (the paper's
// Figure 8 plots their square roots).
type LossBreakdown struct {
	TweetFeature float64 // ‖Xp − Sp Hp Sfᵀ‖²
	UserFeature  float64 // ‖Xu − Su Hu Sfᵀ‖²
	UserTweet    float64 // ‖Xr − Su Spᵀ‖²
	Lexicon      float64 // α‖Sf − Sf0‖²  (temporal feature term online)
	GraphReg     float64 // β·tr(SuᵀLuSu)
	Temporal     float64 // γ‖Su(d,e) − Suw‖² (online only)
	Total        float64
}

// Result is the output of a solver run.
type Result struct {
	Factors
	// Iterations is the number of completed update sweeps.
	Iterations int
	// Converged reports whether the tolerance (rather than MaxIter)
	// stopped the run.
	Converged bool
	// History holds the loss breakdown after every sweep.
	History []LossBreakdown
}

// TweetClusters returns the hard cluster assignment of each tweet.
func (r *Result) TweetClusters() []int { return r.Sp.RowArgMax() }

// UserClusters returns the hard cluster assignment of each user.
func (r *Result) UserClusters() []int { return r.Su.RowArgMax() }

// FinalLoss returns the last recorded loss breakdown (zero value when the
// solver did not iterate).
func (r *Result) FinalLoss() LossBreakdown {
	if len(r.History) == 0 {
		return LossBreakdown{}
	}
	return r.History[len(r.History)-1]
}

// initFactors builds the starting factors of a solve. With LexiconInit, Sp
// and Su are seeded by propagating lexicon votes through the data matrices,
// which keeps cluster index j aligned with sentiment class j (the emotion
// consistency the Sf0 regularizer then maintains); otherwise they are random
// positive matrices.
//
// An online step (Algorithm 2, lines 1–2) additionally passes the temporal
// prior Sfw(t), which then seeds Sf and the votes in place of Sf0 —
// Observation 1: previous feature results improve the clustering of new
// tweets — and the previous snapshot's association cores, which warm-start Hp
// and Hu; the offline fit passes nil for all three. The step's random stream
// is laid out as the prior-less construction (Sf, Sp, Su, Hp, Hu) followed by
// the prior's overrides (Sf, Sp, Su), one uniform draw per matrix element
// whatever the branch. A matrix the overrides or the warm start replace is not
// materialized, but its draws are still consumed (skipDraws): journal
// fingerprints and ETags carry the stream position.
func initFactors(p *Problem, cfg Config, rng *rand.Rand, prior, hp, hu *mat.Dense) Factors {
	n, l := p.Xp.Rows(), p.Xp.Cols()
	m := p.Xu.Rows()
	k := cfg.K
	var f Factors

	switch {
	case prior != nil:
		skipDraws(rng, l*k)
	case p.Sf0 != nil:
		f.Sf = p.Sf0.Clone()
		mat.PerturbPositive(rng, f.Sf, 0.01)
	default:
		f.Sf = mat.RandomNonNegative(rng, l, k, 0.1, 1)
	}
	switch {
	case cfg.LexiconInit && prior != nil:
		skipDraws(rng, n*k+m*k)
	case cfg.LexiconInit && p.Sf0 != nil:
		f.Sp, f.Su = lexiconVotes(p, p.Sf0, rng)
	default:
		f.Sp = mat.RandomNonNegative(rng, n, k, 0.1, 1)
		f.Su = mat.RandomNonNegative(rng, m, k, 0.1, 1)
	}
	if hp != nil {
		skipDraws(rng, 2*k*k)
		f.Hp, f.Hu = hp.Clone(), hu.Clone()
	} else {
		f.Hp = mat.Identity(k)
		mat.PerturbPositive(rng, f.Hp, 0.05)
		f.Hu = mat.Identity(k)
		mat.PerturbPositive(rng, f.Hu, 0.05)
	}
	if prior != nil {
		f.Sf = prior.Clone()
		mat.PerturbPositive(rng, f.Sf, 0.01)
		if cfg.LexiconInit {
			f.Sp, f.Su = lexiconVotes(p, prior, rng)
		}
	}
	return f
}

// lexiconVotes seeds Sp (n×k) and Su (m×k) with each tweet's and each user's
// normalized vote over the feature sentiments sf.
func lexiconVotes(p *Problem, sf *mat.Dense, rng *rand.Rand) (sp, su *mat.Dense) {
	sp = p.Xp.MulDense(sf)
	sp.NormalizeRowsL1()
	mat.PerturbPositive(rng, sp, 0.05)
	su = p.Xu.MulDense(sf)
	su.NormalizeRowsL1()
	mat.PerturbPositive(rng, su, 0.05)
	return sp, su
}

// skipDraws consumes n uniform draws exactly as the initializer it stands in
// for would have (one Float64 per matrix element).
func skipDraws(rng *rand.Rand, n int) {
	for i := 0; i < n; i++ {
		rng.Float64()
	}
}
