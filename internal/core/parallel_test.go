package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"triclust/internal/mat"
	"triclust/internal/par"
	"triclust/internal/sparse"
)

// randomProblem builds a Problem large enough that the solver's kernels
// cross the par parallelism threshold.
func randomProblem(seed int64, n, m, l int, k int) *Problem {
	rng := rand.New(rand.NewSource(seed))
	fill := func(rows, cols, nnz int) *sparse.CSR {
		b := sparse.NewCOO(rows, cols)
		for e := 0; e < nnz; e++ {
			b.Add(rng.Intn(rows), rng.Intn(cols), 0.1+rng.Float64())
		}
		return b.ToCSR()
	}
	gu := fill(m, m, 4*m)
	return &Problem{
		Xp:  fill(n, l, 10*n),
		Xu:  fill(m, l, 10*m),
		Xr:  fill(m, n, 5*m),
		Gu:  sparse.Symmetrize(gu),
		Sf0: mat.RandomNonNegative(rng, l, k, 0.1, 1),
	}
}

// TestFitOfflineSerialParallelEquivalent runs Algorithm 1 (FitOffline) and
// two consecutive steps of Algorithm 2 (Online.Step) at parallelism 1 to 4
// on problems whose kernels cross the par threshold. Every factor and the
// final loss must agree with the serial run bit for bit: block bounds
// depend on a loop's shape alone and partial sums are reduced in block
// order, so the width only decides which goroutine runs which block.
func TestFitOfflineSerialParallelEquivalent(t *testing.T) {
	const n, m, l, k = 6000, 800, 400, 3
	cfg := DefaultConfig()
	cfg.MaxIter = 4
	cfg.Tol = -1
	ocfg := DefaultOnlineConfig()
	ocfg.MaxIter = 4
	ocfg.Tol = -1

	solvers := []struct {
		name     string
		temporal bool // γ‖Su − Suw‖² is part of the objective
		solve    func() (*Result, error)
	}{
		// Fresh Problems per run: the transpose caches are shared state.
		{"FitOffline", false, func() (*Result, error) {
			return FitOffline(randomProblem(42, n, m, l, k), cfg)
		}},
		{"Online.Step×2", true, func() (*Result, error) {
			o := NewOnline(ocfg)
			first := make([]int, m)
			for i := range first {
				first[i] = i
			}
			if _, err := o.Step(0, randomProblem(42, n, m, l, k), first); err != nil {
				return nil, err
			}
			// The second snapshot's first m/2 users were active in the
			// first, so their rows carry history (γ, Eq. 26) and the rest
			// are masked (Eq. 24).
			second := make([]int, m)
			for i := range second {
				second[i] = m/2 + i
			}
			return o.Step(1, randomProblem(43, n, m, l, k), second)
		}},
	}
	for _, s := range solvers {
		t.Run(s.name, func(t *testing.T) {
			run := func(procs int) *Result {
				par.SetProcs(procs)
				defer par.SetProcs(0)
				res, err := s.solve()
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			serial := run(1)
			if loss := serial.FinalLoss(); loss.GraphReg == 0 || (s.temporal && loss.Temporal == 0) {
				t.Fatalf("a regularizer the comparison should cover is inactive: %+v", loss)
			}
			for _, procs := range []int{1, 2, 3, 4} {
				assertSameResult(t, fmt.Sprintf("procs 1 vs %d", procs), serial, run(procs))
			}
		})
	}
}

// assertSameResult fails unless a and b hold the same factors and final
// loss bit for bit.
func assertSameResult(t *testing.T, what string, a, b *Result) {
	t.Helper()
	for _, f := range []struct {
		name string
		a, b *mat.Dense
	}{
		{"Sp", a.Sp, b.Sp},
		{"Su", a.Su, b.Su},
		{"Sf", a.Sf, b.Sf},
		{"Hp", a.Hp, b.Hp},
		{"Hu", a.Hu, b.Hu},
	} {
		for i, v := range f.a.Data() {
			if math.Float64bits(v) != math.Float64bits(f.b.Data()[i]) {
				t.Fatalf("%s: %s differs at %d: %v vs %v", what, f.name, i, v, f.b.Data()[i])
			}
		}
	}
	la, lb := a.FinalLoss().Total, b.FinalLoss().Total
	if math.Float64bits(la) != math.Float64bits(lb) {
		t.Fatalf("%s: loss %v vs %v", what, la, lb)
	}
}

// TestProblemDerivedCaches checks the cached transposes and degrees
// against their direct computation.
func TestProblemDerivedCaches(t *testing.T) {
	p := randomProblem(7, 50, 20, 30, 3)
	if got, want := p.XpT().ToDense(), p.Xp.T().ToDense(); !mat.Equal(got, want, 0) {
		t.Fatal("XpT cache mismatch")
	}
	if got, want := p.XuT().ToDense(), p.Xu.T().ToDense(); !mat.Equal(got, want, 0) {
		t.Fatal("XuT cache mismatch")
	}
	if got, want := p.XrT().ToDense(), p.Xr.T().ToDense(); !mat.Equal(got, want, 0) {
		t.Fatal("XrT cache mismatch")
	}
	deg := p.GuDegrees()
	want := sparse.Degrees(p.Gu)
	for i := range deg {
		if deg[i] != want[i] {
			t.Fatal("GuDegrees cache mismatch")
		}
	}
	// Second access returns the same cached objects.
	if p.XpT() != p.XpT() {
		t.Fatal("XpT not cached")
	}
}
