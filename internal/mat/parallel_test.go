package mat

import (
	"fmt"
	"math/rand"
	"testing"

	"triclust/internal/par"
)

// withProcs runs fn at the given parallelism width and restores the
// default afterwards.
func withProcs(p int, fn func()) {
	par.SetProcs(p)
	defer par.SetProcs(0)
	fn()
}

// TestParallelKernelsMatchSerial checks that every parallel kernel agrees
// with its serial execution bit for bit on shapes large enough to cross
// the par threshold.
func TestParallelKernelsMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n, k := 4000, 8
	a := RandomNonNegative(rng, n, k, 0.1, 1)
	b := RandomNonNegative(rng, k, k, 0.1, 1)
	bb := RandomNonNegative(rng, 64, k, 0.1, 1)
	wide := RandomNonNegative(rng, n, k, 0.1, 2)

	type kernel struct {
		name string
		run  func() *Dense
	}
	kernels := []kernel{
		{"Mul", func() *Dense {
			out := NewDense(n, k)
			out.Mul(a, b)
			return out
		}},
		{"MulABT", func() *Dense {
			out := NewDense(n, 64)
			out.MulABT(a, bb)
			return out
		}},
		{"MulATB", func() *Dense {
			out := NewDense(k, k)
			out.MulATB(a, wide)
			return out
		}},
		{"MulUpdate", func() *Dense {
			out := wide.Clone()
			MulUpdate(out, a, wide)
			return out
		}},
	}
	for _, kn := range kernels {
		var serial, parallel *Dense
		withProcs(1, func() { serial = kn.run() })
		withProcs(4, func() { parallel = kn.run() })
		if i := sameBits(parallel.data, serial.data); i >= 0 {
			t.Fatalf("%s: serial and parallel outputs differ at %d: %v vs %v", kn.name, i, serial.data[i], parallel.data[i])
		}
	}
}

// TestReductionBitsIgnoreWidth holds MulATB and GramInto, whose launches
// reduce per-block partials, to one summation tree: a 40000×3 product has
// the bits it has at two procs when it runs inline because another
// parallel region holds the pool, and at one, three and four procs.
func TestReductionBitsIgnoreWidth(t *testing.T) {
	defer par.SetProcs(0)
	rng := rand.New(rand.NewSource(37))
	const n = 40000
	a, b := width3Operand(rng, n), width3Operand(rng, n)
	run := func() []float64 {
		atb := NewDense(3, 3)
		atb.MulATB(a, b)
		return append(atb.data, GramInto(nil, a).data...)
	}
	par.SetProcs(2)
	want := run()
	check := func(mode string, got []float64) {
		t.Helper()
		if i := sameBits(got, want); i >= 0 {
			t.Errorf("%s: entry %d is %v, %v at two procs", mode, i, got[i], want[i])
		}
	}
	var contended []float64
	par.Run(2, par.MinParallelWork, func(blk, _, _ int) {
		if blk == 0 {
			contended = run()
		}
	})
	check("beside another region", contended)
	for _, procs := range []int{1, 3, 4} {
		par.SetProcs(procs)
		check(fmt.Sprintf("procs %d", procs), run())
	}
}

func TestWorkspaceReusesByShape(t *testing.T) {
	ws := NewWorkspace()
	m1 := ws.Get(5, 3)
	for _, v := range m1.Data() {
		if v != 0 {
			t.Fatal("fresh workspace matrices are zeroed by allocation")
		}
	}
	m1.Fill(42)
	ws.Put(m1)
	m2 := ws.Get(5, 3)
	if m2 != m1 {
		t.Fatal("workspace did not reuse the freed matrix")
	}
	m3 := ws.Get(5, 3)
	if m3 == m2 {
		t.Fatal("workspace handed out a checked-out matrix")
	}
	ws.Put(nil, m2, m3) // nil must be tolerated
}

// TestProductIntoAndGramInto holds ProductInto and GramInto, into a nil
// and into a stale destination, to the textbook loops aᵢₖ·bₖⱼ and aₖᵢ·aₖⱼ.
func TestProductIntoAndGramInto(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := RandomNonNegative(rng, 6, 4, 0.1, 1)
	b := RandomNonNegative(rng, 4, 5, 0.1, 1)
	naive := func(rows, cols, inner int, at func(i, j, k int) float64) *Dense {
		out := NewDense(rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				for k := 0; k < inner; k++ {
					out.Set(i, j, out.At(i, j)+at(i, j, k))
				}
			}
		}
		return out
	}
	product := naive(6, 5, 4, func(i, j, k int) float64 { return a.At(i, k) * b.At(k, j) })
	gram := naive(4, 4, 6, func(i, j, k int) float64 { return a.At(k, i) * a.At(k, j) })
	stale := func(rows, cols int) *Dense {
		m := NewDense(rows, cols)
		m.Fill(-1)
		return m
	}
	for name, got := range map[string]*Dense{
		"ProductInto(nil)": ProductInto(nil, a, b), "ProductInto(dst)": ProductInto(stale(6, 5), a, b),
	} {
		if !Equal(got, product, 1e-12) {
			t.Errorf("%s is not a·b", name)
		}
	}
	for name, got := range map[string]*Dense{
		"GramInto(nil)": GramInto(nil, a), "GramInto(dst)": GramInto(stale(4, 4), a),
	} {
		if !Equal(got, gram, 1e-12) {
			t.Errorf("%s is not aᵀ·a", name)
		}
	}
}

func TestSplitPosNegIntoOverwritesStale(t *testing.T) {
	m := FromRows([][]float64{{1, -2}, {-3, 4}})
	pos, neg := NewDense(2, 2), NewDense(2, 2)
	pos.Fill(9)
	neg.Fill(9)
	SplitPosNegInto(pos, neg, m)
	wantPos := FromRows([][]float64{{1, 0}, {0, 4}})
	wantNeg := FromRows([][]float64{{0, 2}, {3, 0}})
	if !Equal(pos, wantPos, 0) || !Equal(neg, wantNeg, 0) {
		t.Fatalf("SplitPosNegInto left stale values: pos=%v neg=%v", pos, neg)
	}
}
