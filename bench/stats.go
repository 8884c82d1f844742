package main

import (
	"math"
	"runtime"
	"slices"
	"time"
)

// tenBeyond is the number of samples that must lie beyond a percentile
// before it may be printed: a p99 over 600 samples rests on six of them.
const tenBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of sorted
// and whether at least tenBeyond samples lie beyond it. A percentile
// that fails the rule is never printed; callers report 0 for it.
func percentile(sorted []int64, q float64) (v int64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx > n-1 {
		idx = n - 1
	}
	return sorted[idx], n-1-idx >= tenBeyond
}

// median is the middle value of xs, or the mean of the middle two.
func median[T int64 | float64](xs []T) float64 {
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	if n == 0 {
		return 0
	}
	return (float64(s[(n-1)/2]) + float64(s[n/2])) / 2
}

func sum(xs []int64) int64 {
	var t int64
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
func us(ns int64) float64 { return float64(ns) / 1e3 }

// ratio is a/b, or 0 when b is 0 (a layer that did nothing).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// openLoopResult is what one connection of an open-loop schedule saw.
type openLoopResult struct {
	// latency[i] runs from op i's due time to its completion, so the wait
	// a stall imposes on later ops is counted, not hidden.
	latency []time.Duration
	// late[i] is how long after its due time op i was sent.
	late []time.Duration
	// backlogMax is the most ops that were due but unsent at any send.
	backlogMax int
	failed     int
}

// runSchedule issues ops 0..len(due)-1 in order on one connection: op i
// is sent at its due time (an offset from start), or as soon as op i-1
// has completed if that is later. now and sleep are the clock, injected
// so the accounting can be tested against a stalled fake server.
func runSchedule(due []time.Duration, do func(i int) error, now func() time.Duration, sleep func(time.Duration)) openLoopResult {
	r := openLoopResult{
		latency: make([]time.Duration, len(due)),
		late:    make([]time.Duration, len(due)),
	}
	for i := range due {
		t := now()
		if t < due[i] {
			sleep(due[i] - t)
			t = now()
		}
		r.late[i] = t - due[i]
		backlog := 0
		for j := i + 1; j < len(due) && due[j] <= t; j++ {
			backlog++
		}
		if backlog > r.backlogMax {
			r.backlogMax = backlog
		}
		if err := do(i); err != nil {
			r.failed++
		}
		r.latency[i] = now() - due[i]
	}
	return r
}

// spinMargin is how long before a due time preciseSleep stops sleeping
// and starts yielding: on this machine a sleep overshoots by about a
// millisecond, sometimes three.
const spinMargin = 3 * time.Millisecond

// preciseSleep waits d: it sleeps the part that leaves spinMargin to
// spare and yields through the rest. It suits a schedule whose ops are
// tens of milliseconds apart, where the yielding is a few per cent of
// one core.
func preciseSleep(d time.Duration) {
	t0 := time.Now()
	if d > spinMargin {
		time.Sleep(d - spinMargin)
	}
	for time.Since(t0) < d {
		runtime.Gosched()
	}
}

func durationsNs(ds []time.Duration) []int64 {
	out := make([]int64, len(ds))
	for i, d := range ds {
		out[i] = int64(d)
	}
	return out
}
