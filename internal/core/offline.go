package core

import (
	"math"
	"math/rand"
	"slices"

	"triclust/internal/mat"
	"triclust/internal/sparse"
)

// regScales computes the internal multipliers that turn the user-facing
// relative weights α, β, γ ∈ [0,1] into absolute objective weights.
//
// The data-fidelity residuals are O(‖X‖²_F) while the regularizers are
// O(l) (lexicon), O(nnz(Gu)) (graph) and O(m) (temporal) — several orders
// of magnitude smaller on real corpora. The paper treats α and β as
// *contribution* weights ("parameters α, β ∈ [0,1] to weigh the
// contributions", §3) whose full range visibly moves the solution
// (Figures 6–7), which is only possible if the terms are on a common
// scale; we therefore scale each regularizer so that weight 1 makes it
// comparable to one data term.
func regScales(p *Problem) (alphaScale, betaScale, gammaScale float64) {
	xp, xu, xr := p.dataNormsSq()
	data := (xp + xu + xr) / 3
	if data <= 0 {
		return 1, 1, 1
	}
	l := p.Xp.Cols()
	if l < 1 {
		l = 1
	}
	alphaScale = data / float64(l)
	edges := 1
	if p.Gu != nil && p.Gu.NNZ() > 0 {
		edges = p.Gu.NNZ()
	}
	betaScale = data / float64(edges)
	m := p.Xu.Rows()
	if m < 1 {
		m = 1
	}
	gammaScale = data / float64(m)
	return alphaScale, betaScale, gammaScale
}

// FitOffline runs Algorithm 1: alternating multiplicative updates of
// Sp (Eq. 9), Hp (Eq. 12), Su (Eq. 11), Hu (Eq. 13) and Sf (Eq. 7) until
// the relative change of the objective (Eq. 1) falls below cfg.Tol or
// cfg.MaxIter sweeps complete.
//
// All per-sweep temporaries live in one mat.Workspace, so after the first
// sweep the iteration loop performs (near) zero heap allocations; the
// large sparse products run on the parallel kernels of packages mat and
// sparse against the Problem's cached transposes.
func FitOffline(p *Problem, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := p.Validate(cfg.K); err != nil {
		return nil, err
	}
	cfg, f := beginOffline(p, cfg)
	return iterate(p, f, cfg, nil, offlineOrder, mat.NewWorkspace()), nil
}

// beginOffline sets a checked problem up for Algorithm 1: the weights
// rescaled to its data, and the seeded factors the sweeps start from.
func beginOffline(p *Problem, cfg Config) (Config, Factors) {
	aScale, bScale, _ := regScales(p)
	cfg.Alpha *= aScale
	cfg.Beta *= bScale
	return cfg, initFactors(p, cfg, rand.New(rand.NewSource(cfg.Seed)), nil, nil, nil)
}

// update names one of the five multiplicative update rules.
type update uint8

const (
	stepSp update = iota // Eq. 9
	stepHp               // Eq. 12
	stepSu               // Eq. 11 offline; Eqs. 24/26 online
	stepHu               // Eq. 13
	stepSf               // Eq. 7 offline; Eq. 23 online
)

// The two algorithms sweep the same five rules in different orders, and the
// order is part of each one's arithmetic. Algorithm 1 fits the clusterings to
// the data first and ends its sweep on Eq. 7, where the lexicon pulls Sf back
// last. Algorithm 2 (lines 4–8) starts its sweep at Sf: line 1 initialized it
// to the temporal prior Sfw(t), and Eq. 23 fits that history to the snapshot's
// data before any other factor reads it.
var (
	offlineOrder = []update{stepSp, stepHp, stepSu, stepHu, stepSf}
	onlineOrder  = []update{stepSf, stepSp, stepHp, stepHu, stepSu}
)

// iterate is the solver loop of both algorithms: sweep the rules over f in
// the given order until the relative change of the objective falls below
// cfg.Tol or cfg.MaxIter sweeps complete. tr is nil for the offline objective
// (Eq. 1); online (Eq. 19) it carries the temporal terms. The updates work in
// place, so the result's factors are f's matrices. The solvers pass all
// five rules (an all-OOV problem keeps two of them, below); a sweep of one
// rule is how the property tests see the objective after each update.
func iterate(p *Problem, f Factors, cfg Config, tr *temporalUser, order []update, ws *mat.Workspace) *Result {
	res := &Result{Factors: f, History: make([]LossBreakdown, 0, cfg.MaxIter)}
	if p.Xp.NNZ() == 0 && p.Xu.NNZ() == 0 {
		// No tweet holds a vocabulary word (an all-OOV batch): nothing is
		// evidence for Sf, Hp or Hu, so they keep where they start — the
		// prior and the previous cores. Their rules would take Hp and Hu to
		// exactly zero, where a warm start never leaves, and Sf's Δ⁻ term,
		// with no data term against it, grows Sf without bound.
		order = slices.DeleteFunc(slices.Clone(order), func(u update) bool { return u != stepSp && u != stepSu })
	}
	prior := p.featurePrior(tr)
	prev := math.Inf(1)
	for it := 0; it < cfg.MaxIter; it++ {
		for _, u := range order {
			switch u {
			case stepSp:
				updateSp(p, &f, ws)
			case stepHp:
				updateH(p.Xp, f.Sp, f.Hp, f.Sf, ws)
			case stepSu:
				updateSu(p, &f, cfg, tr, ws)
			case stepHu:
				updateH(p.Xu, f.Su, f.Hu, f.Sf, ws)
			case stepSf:
				updateSf(p, &f, cfg, prior, ws)
			}
		}

		loss := Loss(p, &f, cfg, tr, ws)
		res.History = append(res.History, loss)
		res.Iterations = it + 1
		if relChange(prev, loss.Total) < cfg.Tol {
			res.Converged = true
			break
		}
		prev = loss.Total
	}
	return res
}

// featurePrior returns what the Sf update and the loss pull Sf toward: the
// temporal prior Sfw(t) of an online step, the lexicon prior Sf0 otherwise.
func (p *Problem) featurePrior(tr *temporalUser) *mat.Dense {
	if tr != nil && tr.sfPrior != nil {
		return tr.sfPrior
	}
	return p.Sf0
}

func relChange(prev, cur float64) float64 {
	if math.IsInf(prev, 1) {
		return math.Inf(1)
	}
	denom := math.Abs(prev)
	if denom < 1 {
		denom = 1
	}
	return math.Abs(prev-cur) / denom
}

// updateSp applies Eq. 9:
//
//	Sp ← Sp ∘ √( (Xp Sf Hpᵀ + Xrᵀ Su + Sp Δ⁻) /
//	             (Sp Hp Sfᵀ Sf Hpᵀ + Sp Suᵀ Su + Sp Δ⁺) )
//
// with Δ = Spᵀ Xp Sf Hpᵀ − Hp Sfᵀ Sf Hpᵀ + Spᵀ Xrᵀ Su − Suᵀ Su.
func updateSp(p *Problem, f *Factors, ws *mat.Workspace) {
	k := f.Sp.Cols()
	n, l := f.Sp.Rows(), f.Sf.Rows()
	sfHpT := ws.Get(l, k)
	sfHpT.MulABT(f.Sf, f.Hp)
	c := p.Xp.MulDenseInto(ws.Get(n, k), sfHpT)    // n×k: Xp Sf Hpᵀ
	c2 := p.XrT().MulDenseInto(ws.Get(n, k), f.Su) // n×k: Xrᵀ Su
	c.Add(c, c2)

	gramSf := mat.GramInto(ws.Get(k, k), f.Sf)
	hpGram := mat.ProductInto(ws.Get(k, k), f.Hp, gramSf)
	d1 := ws.Get(k, k) // Hp Gram(Sf) Hpᵀ
	d1.MulABT(hpGram, f.Hp)
	d2 := mat.GramInto(ws.Get(k, k), f.Su)
	d := ws.Get(k, k)
	d.Add(d1, d2)

	delta := ws.Get(k, k) // Spᵀ(C) − D
	delta.MulATB(f.Sp, c)
	delta.Sub(delta, d)
	dPos, dNeg := ws.Get(k, k), ws.Get(k, k)
	mat.SplitPosNegInto(dPos, dNeg, delta)

	numer := mat.ProductInto(ws.Get(n, k), f.Sp, dNeg)
	numer.Add(numer, c)
	denom := mat.ProductInto(ws.Get(n, k), f.Sp, d)
	spPos := mat.ProductInto(ws.Get(n, k), f.Sp, dPos)
	denom.Add(denom, spPos)

	mat.MulUpdate(f.Sp, numer, denom)
	ws.Put(sfHpT, c, c2, gramSf, hpGram, d1, d2, d, delta, dPos, dNeg, numer, denom, spPos)
}

// updateSu applies Eq. 11 (offline; suw == nil) or Eqs. 24/26 (online;
// suw carries the γ-weighted history rows and evolving marks which rows
// have one):
//
//	Su ← Su ∘ √( (Xu Sf Huᵀ + Xr Sp + β Gu Su + Su Δ⁻ [+ γ Suw]) /
//	             (Su Hu Sfᵀ Sf Huᵀ + Su Spᵀ Sp + β Du Su + Su Δ⁺ [+ γ Su]) )
func updateSu(p *Problem, f *Factors, cfg Config, tr *temporalUser, ws *mat.Workspace) {
	k := f.Su.Cols()
	m, l := f.Su.Rows(), f.Sf.Rows()
	sfHuT := ws.Get(l, k)
	sfHuT.MulABT(f.Sf, f.Hu)
	e := p.Xu.MulDenseInto(ws.Get(m, k), sfHuT) // m×k: Xu Sf Huᵀ
	e2 := p.Xr.MulDenseInto(ws.Get(m, k), f.Sp) // m×k: Xr Sp
	e.Add(e, e2)

	gramSf := mat.GramInto(ws.Get(k, k), f.Sf)
	huGram := mat.ProductInto(ws.Get(k, k), f.Hu, gramSf)
	f1 := ws.Get(k, k) // Hu Gram(Sf) Huᵀ
	f1.MulABT(huGram, f.Hu)
	f2 := mat.GramInto(ws.Get(k, k), f.Sp)
	fd := ws.Get(k, k)
	fd.Add(f1, f2)

	delta := ws.Get(k, k) // Suᵀ(E) − F − β SuᵀLuSu [− γ Suᵀ(Su−Suw)]
	delta.MulATB(f.Su, e)
	delta.Sub(delta, fd)

	var gus, dus *mat.Dense
	if cfg.Beta > 0 && p.Gu != nil {
		gus = p.Gu.MulDenseInto(ws.Get(m, k), f.Su)
		dus = sparse.DegreeMulDenseInto(ws.Get(m, k), p.Gu, p.GuDegrees(), f.Su)
		// Lu Su = Du Su − Gu Su, with sparse.LaplacianMulDenseInto's bits
		// and without its second SpMM over Gu.
		lus := ws.Get(m, k)
		lus.Sub(dus, gus)
		lap := ws.Get(k, k)
		lap.MulATB(f.Su, lus)
		delta.AddScaled(delta, -cfg.Beta, lap)
		ws.Put(lus, lap)
	}
	if tr != nil && tr.gamma > 0 {
		// −γ Suᵀ(Su − Suw) restricted to rows with history.
		diff := ws.Get(m, k)
		diff.Sub(f.Su, tr.suw)
		tr.maskRowsWithoutHistory(diff)
		g := ws.Get(k, k)
		g.MulATB(f.Su, diff)
		delta.AddScaled(delta, -tr.gamma, g)
		ws.Put(diff, g)
	}
	dPos, dNeg := ws.Get(k, k), ws.Get(k, k)
	mat.SplitPosNegInto(dPos, dNeg, delta)

	numer := mat.ProductInto(ws.Get(m, k), f.Su, dNeg)
	numer.Add(numer, e)
	denom := mat.ProductInto(ws.Get(m, k), f.Su, fd)
	suPos := mat.ProductInto(ws.Get(m, k), f.Su, dPos)
	denom.Add(denom, suPos)
	if gus != nil {
		numer.AddScaled(numer, cfg.Beta, gus)
		denom.AddScaled(denom, cfg.Beta, dus)
		ws.Put(gus, dus)
	}
	if tr != nil && tr.gamma > 0 {
		// Eq. 26: + γ Suw in the numerator, + γ Su in the denominator,
		// only for rows with history (evolving users, Eq. 24 otherwise).
		tr.addTemporalTerms(numer, denom, f.Su)
	}

	mat.MulUpdate(f.Su, numer, denom)
	ws.Put(sfHuT, e, e2, gramSf, huGram, f1, f2, fd, delta, dPos, dNeg, numer, denom, suPos)
}

// updateSf applies Eq. 7 (offline; prior = Sf0) and Eq. 23 (online;
// prior = Sfw):
//
//	Sf ← Sf ∘ √( (Xuᵀ Su Hu + Xpᵀ Sp Hp + α·prior + Sf Δ⁻) /
//	             (Sf Huᵀ Suᵀ Su Hu + Sf Hpᵀ Spᵀ Sp Hp + α Sf + Sf Δ⁺) )
func updateSf(p *Problem, f *Factors, cfg Config, prior *mat.Dense, ws *mat.Workspace) {
	k := f.Sf.Cols()
	n, m, l := f.Sp.Rows(), f.Su.Rows(), f.Sf.Rows()
	spHp := mat.ProductInto(ws.Get(n, k), f.Sp, f.Hp)
	suHu := mat.ProductInto(ws.Get(m, k), f.Su, f.Hu)
	a := p.XpT().MulDenseInto(ws.Get(l, k), spHp)  // l×k: Xpᵀ Sp Hp
	a2 := p.XuT().MulDenseInto(ws.Get(l, k), suHu) // l×k: Xuᵀ Su Hu
	a.Add(a, a2)

	gramSp := mat.GramInto(ws.Get(k, k), f.Sp)
	gramSpHp := mat.ProductInto(ws.Get(k, k), gramSp, f.Hp)
	b1 := ws.Get(k, k) // Hpᵀ Gram(Sp) Hp
	b1.MulATB(f.Hp, gramSpHp)
	gramSu := mat.GramInto(ws.Get(k, k), f.Su)
	gramSuHu := mat.ProductInto(ws.Get(k, k), gramSu, f.Hu)
	b2 := ws.Get(k, k) // Huᵀ Gram(Su) Hu
	b2.MulATB(f.Hu, gramSuHu)
	b := ws.Get(k, k)
	b.Add(b1, b2)

	delta := ws.Get(k, k) // Sfᵀ(A) − B − α Sfᵀ(Sf − prior)
	delta.MulATB(f.Sf, a)
	delta.Sub(delta, b)
	if cfg.Alpha > 0 && prior != nil {
		diff := ws.Get(l, k)
		diff.Sub(f.Sf, prior)
		g := ws.Get(k, k)
		g.MulATB(f.Sf, diff)
		delta.AddScaled(delta, -cfg.Alpha, g)
		ws.Put(diff, g)
	}
	dPos, dNeg := ws.Get(k, k), ws.Get(k, k)
	mat.SplitPosNegInto(dPos, dNeg, delta)

	numer := mat.ProductInto(ws.Get(l, k), f.Sf, dNeg)
	numer.Add(numer, a)
	denom := mat.ProductInto(ws.Get(l, k), f.Sf, b)
	sfPos := mat.ProductInto(ws.Get(l, k), f.Sf, dPos)
	denom.Add(denom, sfPos)
	if cfg.Alpha > 0 && prior != nil {
		numer.AddScaled(numer, cfg.Alpha, prior)
		denom.AddScaled(denom, cfg.Alpha, f.Sf)
	}

	mat.MulUpdate(f.Sf, numer, denom)
	ws.Put(spHp, suHu, a, a2, gramSp, gramSpHp, b1, b2, gramSu, gramSuHu, b,
		delta, dPos, dNeg, numer, denom, sfPos)
}

// updateH applies Eq. 12 to (Xp, Sp, Hp) and Eq. 13 to (Xu, Su, Hu), the same
// rule over either side of the tripartite graph:
//
//	H ← H ∘ √(Sᵀ X Sf / Sᵀ S H Sfᵀ Sf)
func updateH(x *sparse.CSR, s, h, sf *mat.Dense, ws *mat.Workspace) {
	k := h.Rows()
	xSf := x.MulDenseInto(ws.Get(s.Rows(), k), sf)
	numer := ws.Get(k, k)
	numer.MulATB(s, xSf)
	gramS := mat.GramInto(ws.Get(k, k), s)
	gramSf := mat.GramInto(ws.Get(k, k), sf)
	gh := mat.ProductInto(ws.Get(k, k), gramS, h)
	denom := mat.ProductInto(ws.Get(k, k), gh, gramSf)
	mat.MulUpdate(h, numer, denom)
	ws.Put(xSf, numer, gramS, gramSf, gh, denom)
}

// Loss evaluates every term of the objective. tr is nil for the offline
// objective (Eq. 1); online (Eq. 19) it supplies the temporal user term,
// and the Lexicon field then measures α‖Sf − Sfw‖² via the prior recorded
// in tr. ws provides scratch space (nil allocates fresh temporaries).
func Loss(p *Problem, f *Factors, cfg Config, tr *temporalUser, ws *mat.Workspace) LossBreakdown {
	if ws == nil {
		ws = mat.NewWorkspace()
	}
	var lb LossBreakdown
	xp, xu, xr := p.dataNormsSq()
	lb.TweetFeature = p.Xp.ResidualFrobeniusSqWS(xp, f.Sp, f.Hp, f.Sf, ws)
	lb.UserFeature = p.Xu.ResidualFrobeniusSqWS(xu, f.Su, f.Hu, f.Sf, ws)
	lb.UserTweet = p.Xr.ResidualFrobeniusSqWS(xr, f.Su, nil, f.Sp, ws)

	if prior := p.featurePrior(tr); cfg.Alpha > 0 && prior != nil {
		lb.Lexicon = cfg.Alpha * mat.DiffFrobeniusSq(f.Sf, prior)
	}
	if cfg.Beta > 0 && p.Gu != nil {
		lb.GraphReg = cfg.Beta * sparse.GraphRegularizationWS(p.Gu, p.GuDegrees(), f.Su, ws)
	}
	if tr != nil && tr.gamma > 0 {
		diff := ws.Get(f.Su.Rows(), f.Su.Cols())
		diff.Sub(f.Su, tr.suw)
		tr.maskRowsWithoutHistory(diff)
		lb.Temporal = tr.gamma * diff.FrobeniusSq()
		ws.Put(diff)
	}
	lb.Total = lb.TweetFeature + lb.UserFeature + lb.UserTweet +
		lb.Lexicon + lb.GraphReg + lb.Temporal
	return lb
}
