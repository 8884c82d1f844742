package par

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

// goid returns the calling goroutine's id, read from the header line of
// its stack trace ("goroutine 7 [running]:").
func goid() string {
	var buf [64]byte
	return strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1]
}

func TestForCoversRangeExactlyOnce(t *testing.T) {
	defer SetProcs(0)
	for _, procs := range []int{1, 2, 7} {
		SetProcs(procs)
		for _, n := range []int{0, 1, 5, 1000, 100000} {
			hits := make([]int32, n)
			Run(n, 1000, func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("procs=%d n=%d: index %d visited %d times", procs, n, i, h)
				}
			}
		}
	}
}

// TestBlocksDependOnShapeAlone pins the split rule: the blocks tile
// [0, n) exactly once, none empty; there is one block exactly when the work
// is below MinParallelWork (or of unknown cost), splitBlocks (n if fewer)
// otherwise, and the count does not change with the width.
func TestBlocksDependOnShapeAlone(t *testing.T) {
	defer SetProcs(0)
	for _, tc := range []struct{ n, cost int }{
		{0, 1}, {1, 1 << 20}, {10, 0}, {MinParallelWork - 1, 1}, {MinParallelWork, 1},
		{MinParallelWork / 3, 3}, {40000, 3}, {40000, 9}, {1000, 1000}, {100000, 10},
		{5, MinParallelWork}, {splitBlocks + 1, MinParallelWork},
	} {
		SetProcs(1)
		nb := Blocks(tc.n, tc.cost)
		want := min(tc.n, splitBlocks)
		if tc.cost < 1 || tc.n*tc.cost < MinParallelWork {
			want = 1
		}
		if nb != want {
			t.Fatalf("Blocks(%d, %d) = %d, want %d", tc.n, tc.cost, nb, want)
		}
		for _, procs := range []int{2, 3, 4, 7} {
			SetProcs(procs)
			if got := Blocks(tc.n, tc.cost); got != nb {
				t.Fatalf("Blocks(%d, %d) = %d at %d procs, %d at 1", tc.n, tc.cost, got, procs, nb)
			}
		}
		for b, prev := 0, 0; b < nb; b++ {
			lo, hi := b*tc.n/nb, (b+1)*tc.n/nb
			if lo != prev || (hi <= lo && tc.n > 0) {
				t.Fatalf("n=%d nb=%d: block %d is [%d,%d) after %d", tc.n, nb, b, lo, hi, prev)
			}
			prev = hi
			if b == nb-1 && hi != tc.n {
				t.Fatalf("n=%d nb=%d: blocks end at %d", tc.n, nb, hi)
			}
		}
	}
}

// TestRunCallsEachBlockOnce holds Run to the split Blocks states: fn sees
// each block once, with that block's row range, whether the loop fans
// out, runs inline because another region holds the pool, or runs at
// width 1.
func TestRunCallsEachBlockOnce(t *testing.T) {
	defer SetProcs(0)
	const n, cost = 100000, 10
	nb := Blocks(n, cost)
	if nb < 4 {
		t.Fatalf("Blocks(%d, %d) = %d, the loop does not test a split", n, cost, nb)
	}
	check := func(mode string, run func(fn func(block, lo, hi int))) {
		t.Helper()
		seen := make([]int32, nb)
		run(func(b, lo, hi int) {
			if lo != b*n/nb || hi != (b+1)*n/nb {
				t.Errorf("%s: block %d got [%d,%d)", mode, b, lo, hi)
			}
			atomic.AddInt32(&seen[b], 1)
		})
		for b, c := range seen {
			if c != 1 {
				t.Fatalf("%s: block %d ran %d times", mode, b, c)
			}
		}
	}
	SetProcs(4)
	check("fanned out", func(fn func(block, lo, hi int)) { Run(n, cost, fn) })
	check("contended", func(fn func(block, lo, hi int)) {
		Run(2, MinParallelWork, func(b, _, _ int) {
			if b == 0 {
				Run(n, cost, fn)
			}
		})
	})
	SetProcs(1)
	check("width 1", func(fn func(block, lo, hi int)) { Run(n, cost, fn) })
}

func TestSmallWorkRunsSerial(t *testing.T) {
	SetProcs(8)
	defer SetProcs(0)
	// Work below MinParallelWork, or of unknown cost, is one block and
	// stays on the calling goroutine.
	for _, cost := range []int{1, 0} {
		if nb := Blocks(10, cost); nb != 1 {
			t.Fatalf("Blocks(10, %d) = %d, want 1", cost, nb)
		}
		calls := 0
		Run(10, cost, func(block, lo, hi int) {
			calls++
			if block != 0 || lo != 0 || hi != 10 {
				t.Fatalf("serial path got block=%d [%d,%d)", block, lo, hi)
			}
		})
		if calls != 1 {
			t.Fatalf("cost %d: %d calls, want 1", cost, calls)
		}
	}
	if Blocks(MinParallelWork, 1) == 1 {
		t.Fatal("Blocks at MinParallelWork = 1, want a split")
	}
	// At width 1 a loop of many blocks runs them all on the calling
	// goroutine, in block order, without taking the pool.
	SetProcs(1)
	caller, next := goid(), 0
	Run(MinParallelWork, 1, func(block, _, _ int) {
		if g := goid(); g != caller || block != next || active.Load() != 0 {
			t.Errorf("width 1: block %d (want %d) ran on goroutine %s (caller %s), region taken %t",
				block, next, g, caller, active.Load() != 0)
		}
		next++
	})
	if nb := Blocks(MinParallelWork, 1); next != nb {
		t.Fatalf("width 1: %d blocks ran, want %d", next, nb)
	}
}

func TestNestedForFallsBackToSerial(t *testing.T) {
	SetProcs(4)
	defer SetProcs(0)
	const n = 100000
	var total atomic.Int64
	// The outer loop may fan out; inner loops must detect the active
	// region and run inline rather than deadlock on the shared pool.
	Run(n, 10, func(_, lo, hi int) {
		Run(1000, 1000, func(_, ilo, ihi int) {
			total.Add(int64(ihi - ilo))
		})
	})
	// Each outer block contributes one full inner range of 1000.
	if got := total.Load(); got%1000 != 0 || got == 0 {
		t.Fatalf("inner ranges incomplete: total=%d", got)
	}
}

func TestSetProcsClampsAndRestoresDefault(t *testing.T) {
	SetProcs(3)
	if Procs() != 3 {
		t.Fatalf("Procs=%d, want 3", Procs())
	}
	SetProcs(-5)
	if Procs() < 1 {
		t.Fatalf("Procs=%d, want >=1", Procs())
	}
	SetProcs(0)
}
