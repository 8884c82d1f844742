package core

import (
	"math"
	"math/rand"
	"testing"

	"triclust/internal/mat"
	"triclust/internal/sparse"
)

// residual is ||X − U·C·Vᵀ||², the loss term the update tests compare.
func residual(x *sparse.CSR, u, c, v *mat.Dense) float64 {
	return x.ResidualFrobeniusSqWS(x.FrobeniusSq(), u, c, v, nil)
}

// exactProblem builds X matrices that are *exactly* factorizable by known
// factors, so update rules can be checked against their fixed points.
func exactProblem(rng *rand.Rand, n, m, l, k int) (*Problem, Factors) {
	sp := mat.RandomNonNegative(rng, n, k, 0.1, 1)
	su := mat.RandomNonNegative(rng, m, k, 0.1, 1)
	sf := mat.RandomNonNegative(rng, l, k, 0.1, 1)
	hp := mat.RandomNonNegative(rng, k, k, 0.1, 1)
	hu := mat.RandomNonNegative(rng, k, k, 0.1, 1)

	xp := mat.NewDense(n, l)
	xp.MulABT(mat.ProductInto(nil, sp, hp), sf)
	xu := mat.NewDense(m, l)
	xu.MulABT(mat.ProductInto(nil, su, hu), sf)
	xr := mat.NewDense(m, n)
	xr.MulABT(su, sp)

	toCSR := func(d *mat.Dense) *sparse.CSR {
		b := sparse.NewCOO(d.Rows(), d.Cols())
		for i := 0; i < d.Rows(); i++ {
			for j, v := range d.Row(i) {
				b.Add(i, j, v)
			}
		}
		return b.ToCSR()
	}
	p := &Problem{Xp: toCSR(xp), Xu: toCSR(xu), Xr: toCSR(xr)}
	return p, Factors{Sp: sp, Su: su, Sf: sf, Hp: hp, Hu: hu}
}

func TestHpUpdateFixedPointOnExactFactorization(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p, f := exactProblem(rng, 12, 6, 9, 3)
	before := f.Hp.Clone()
	updateH(p.Xp, f.Sp, f.Hp, f.Sf, mat.NewWorkspace())
	// At an exact factorization, Spᵀ Xp Sf = Spᵀ Sp Hp Sfᵀ Sf, so the
	// multiplicative ratio is 1 and Hp must not move.
	if !mat.Equal(f.Hp, before, 1e-8) {
		t.Fatalf("Hp moved at fixed point:\n%v\n%v", f.Hp, before)
	}
}

func TestHuUpdateFixedPointOnExactFactorization(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p, f := exactProblem(rng, 12, 6, 9, 3)
	before := f.Hu.Clone()
	updateH(p.Xu, f.Su, f.Hu, f.Sf, mat.NewWorkspace())
	if !mat.Equal(f.Hu, before, 1e-8) {
		t.Fatal("Hu moved at fixed point")
	}
}

func TestHpUpdateReducesResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p, f := exactProblem(rng, 12, 6, 9, 3)
	// Perturb Hp away from the solution; updates must reduce the
	// tweet–feature residual.
	mat.PerturbPositive(rng, f.Hp, 2)
	before := residual(p.Xp, f.Sp, f.Hp, f.Sf)
	for i := 0; i < 5; i++ {
		updateH(p.Xp, f.Sp, f.Hp, f.Sf, mat.NewWorkspace())
	}
	after := residual(p.Xp, f.Sp, f.Hp, f.Sf)
	if after >= before {
		t.Fatalf("Hp updates did not reduce residual: %.4f → %.4f", before, after)
	}
}

func TestSfUpdateReducesResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p, f := exactProblem(rng, 12, 6, 9, 3)
	mat.PerturbPositive(rng, f.Sf, 1)
	cfg := Config{K: 3}.withDefaults()
	loss := func() float64 {
		return residual(p.Xp, f.Sp, f.Hp, f.Sf) +
			residual(p.Xu, f.Su, f.Hu, f.Sf)
	}
	before := loss()
	for i := 0; i < 5; i++ {
		updateSf(p, &f, cfg, nil, mat.NewWorkspace())
	}
	after := loss()
	if after >= before {
		t.Fatalf("Sf updates did not reduce residual: %.4f → %.4f", before, after)
	}
}

func TestSpUpdateReducesResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p, f := exactProblem(rng, 12, 6, 9, 3)
	mat.PerturbPositive(rng, f.Sp, 1)
	loss := func() float64 {
		return residual(p.Xp, f.Sp, f.Hp, f.Sf) +
			residual(p.Xr, f.Su, nil, f.Sp)
	}
	before := loss()
	for i := 0; i < 5; i++ {
		updateSp(p, &f, mat.NewWorkspace())
	}
	after := loss()
	if after >= before {
		t.Fatalf("Sp updates did not reduce residual: %.4f → %.4f", before, after)
	}
}

func TestSuUpdateReducesResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	p, f := exactProblem(rng, 12, 6, 9, 3)
	mat.PerturbPositive(rng, f.Su, 1)
	cfg := Config{K: 3}.withDefaults()
	loss := func() float64 {
		return residual(p.Xu, f.Su, f.Hu, f.Sf) +
			residual(p.Xr, f.Su, nil, f.Sp)
	}
	before := loss()
	for i := 0; i < 5; i++ {
		updateSu(p, &f, cfg, nil, mat.NewWorkspace())
	}
	after := loss()
	if after >= before {
		t.Fatalf("Su updates did not reduce residual: %.4f → %.4f", before, after)
	}
}

func TestGammaPullsSuTowardHistory(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	p, f := exactProblem(rng, 12, 6, 9, 3)
	target := mat.RandomNonNegative(rng, 6, 3, 0.1, 1)
	_, _, gScale := regScales(p)
	tr := &temporalUser{
		gamma:   50 * gScale,
		suw:     target,
		hasHist: []bool{true, true, true, true, true, true},
	}
	cfg := Config{K: 3}.withDefaults()
	before := mat.DiffFrobeniusSq(f.Su, target)
	for i := 0; i < 50; i++ {
		updateSu(p, &f, cfg, tr, mat.NewWorkspace())
	}
	after := mat.DiffFrobeniusSq(f.Su, target)
	if after >= before {
		t.Fatalf("strong γ did not pull Su toward Suw: %.4f → %.4f", before, after)
	}
}

func TestGammaIgnoresRowsWithoutHistory(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p, f := exactProblem(rng, 12, 6, 9, 3)
	target := mat.RandomNonNegative(rng, 6, 3, 5, 6) // far away
	_, _, gScale := regScales(p)
	hasHist := []bool{true, false, true, false, true, false}
	tr := &temporalUser{gamma: 10 * gScale, suw: target, hasHist: hasHist}
	cfg := Config{K: 3}.withDefaults()

	noHistBefore := make([]float64, 0)
	for i, ok := range hasHist {
		if !ok {
			noHistBefore = append(noHistBefore, rowDist(f.Su.Row(i), target.Row(i)))
		}
	}
	for i := 0; i < 10; i++ {
		updateSu(p, &f, cfg, tr, mat.NewWorkspace())
	}
	// Rows with history must approach the target; rows without must not
	// be dragged toward the (far) target rows.
	idx := 0
	for i, ok := range hasHist {
		if ok {
			continue
		}
		after := rowDist(f.Su.Row(i), target.Row(i))
		if after < 0.2*noHistBefore[idx] {
			t.Fatalf("history-free row %d was dragged toward Suw", i)
		}
		idx++
	}
}

func rowDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

func TestRegScalesProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	p, _ := exactProblem(rng, 12, 6, 9, 3)
	a, b, g := regScales(p)
	if a <= 0 || b <= 0 || g <= 0 {
		t.Fatalf("scales must be positive: %v %v %v", a, b, g)
	}
	// Doubling the data magnitude doubles every scale (×4 in Frobenius²).
	p2 := &Problem{
		Xp: p.Xp.ScaleRows(constSlice(p.Xp.Rows(), 2)),
		Xu: p.Xu.ScaleRows(constSlice(p.Xu.Rows(), 2)),
		Xr: p.Xr.ScaleRows(constSlice(p.Xr.Rows(), 2)),
	}
	a2, b2, g2 := regScales(p2)
	for _, pair := range [][2]float64{{a, a2}, {b, b2}, {g, g2}} {
		if math.Abs(pair[1]/pair[0]-4) > 1e-9 {
			t.Fatalf("scale ratio = %v, want 4", pair[1]/pair[0])
		}
	}
	// Empty problem: scales are 1.
	empty := &Problem{Xp: sparse.Zeros(2, 3), Xu: sparse.Zeros(2, 3), Xr: sparse.Zeros(2, 2)}
	if ea, eb, eg := regScales(empty); ea != 1 || eb != 1 || eg != 1 {
		t.Fatal("empty problem scales should be 1")
	}
}

func constSlice(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}
