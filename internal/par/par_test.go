package par

import (
	"sync/atomic"
	"testing"
)

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

func TestForChunkedChunkIndicesAreDistinct(t *testing.T) {
	SetProcs(4)
	defer SetProcs(0)
	const n = 100000
	seen := make([]int32, Procs())
	used := Run(n, 100, func(chunk, lo, hi int) {
		atomic.AddInt32(&seen[chunk], 1)
	})
	if used < 1 || used > Procs() {
		t.Fatalf("used=%d out of range [1,%d]", used, Procs())
	}
	for c := 0; c < used; c++ {
		if seen[c] != 1 {
			t.Fatalf("chunk %d ran %d times", c, seen[c])
		}
	}
}

func TestSmallWorkRunsSerial(t *testing.T) {
	SetProcs(8)
	defer SetProcs(0)
	// Work below MinParallelWork, or of unknown cost, must stay on the
	// calling goroutine in a single chunk; Serial and Run agree on it.
	for _, cost := range []int{1, 0} {
		if !Serial(10, cost) {
			t.Fatalf("Serial(10, %d) = false, want true", cost)
		}
		if used := Run(10, cost, func(chunk, lo, hi int) {
			if chunk != 0 || lo != 0 || hi != 10 {
				t.Fatalf("serial path got chunk=%d [%d,%d)", chunk, lo, hi)
			}
		}); used != 1 {
			t.Fatalf("cost %d: used=%d, want 1", cost, used)
		}
	}
	if Serial(MinParallelWork, 1) {
		t.Fatal("Serial at MinParallelWork on 8 procs = true, want false")
	}
	SetProcs(1)
	if !Serial(MinParallelWork, 1000) {
		t.Fatal("Serial on 1 proc = false, want true")
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
	// Each outer chunk contributes one full inner range of 1000.
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
