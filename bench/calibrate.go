package main

import (
	"fmt"
	"os"
	"slices"
	"sort"
)

// quartiles returns the first and third quartile of xs as Python's
// statistics.quantiles(xs, n=4) gives them (the exclusive method), which
// is how the driver measures a metric's spread.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		j = min(max(j, 1), ld-1)
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return at(1), at(3)
}

// calibrated are the metrics the calibration table lists: the bounded
// ones, and the timings, whose spread is why they are not bounded.
var calibrated = append(slices.Clone(endToEnd), timings...)

// runCalibration makes one untraced run of each workload on each of the
// n seeds o.seed, o.seed+1, ... and prints, per workload and metric,
// min / median / max, (max−min)/median and the interquartile range over
// the median — the spread the driver measures a bound against, the
// difference between corpora included. It is the table checked in as
// CALIBRATION.md, from which the bounds in BENCHMARK.json are set.
func runCalibration(env *benchEnv, names []string, o options, n int) int {
	o.trace = false
	got := map[string]map[string][]float64{}
	code := 0
	for i := 0; i < n; i++ {
		ro := o
		ro.seed = o.seed + int64(i)
		for _, name := range names {
			r, err := runWorkload(env, name, ro)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
				return 1
			}
			if r.failed+len(r.problems) > 0 {
				code = 1
				fmt.Fprintf(os.Stderr, "bench: %s run %d seed %d: %d failed, %v\n", name, i, ro.seed, r.failed, r.problems)
			}
			if got[name] == nil {
				got[name] = map[string][]float64{}
			}
			fmt.Fprintf(os.Stderr, "bench: calibrate run %d/%d %s seed %d:", i+1, n, name, ro.seed)
			for _, m := range calibrated {
				v, ok := r.values[m.name]
				if !ok {
					continue
				}
				got[name][m.name] = append(got[name][m.name], v)
				fmt.Fprintf(os.Stderr, " %s=%.6g", m.name, v)
			}
			fmt.Fprintf(os.Stderr, " passes=%.0f noise=%.3f\n", r.values["samples.passes"], r.values["noise.all_over_quiet"])
		}
	}
	fmt.Printf("%d runs, seeds %d..%d, %.0f s each\n\n", n, o.seed, o.seed+int64(n)-1, o.seconds)
	fmt.Println("| workload | metric | unit | min | median | max | (max−min)/median | IQR/median |")
	fmt.Println("|---|---|---|---|---|---|---|---|")
	for _, name := range names {
		for _, m := range calibrated {
			xs := append([]float64(nil), got[name][m.name]...)
			if len(xs) < n {
				continue // not a metric of this workload, or not on every seed
			}
			sort.Float64s(xs)
			med := median(xs)
			q1, q3 := quartiles(xs)
			fmt.Printf("| %s | %s | %s | %.6g | %.6g | %.6g | %.4f | %.4f |\n",
				name, m.name, m.unit, xs[0], med, xs[len(xs)-1],
				ratio(xs[len(xs)-1]-xs[0], med), ratio(q3-q1, med))
		}
	}
	return code
}
