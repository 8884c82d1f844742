// Package eval implements the clustering-quality metrics of the paper's
// §5: clustering accuracy under majority-vote cluster→class assignment and
// Normalized Mutual Information (NMI), plus the Adjusted Rand Index.
//
// All functions ignore items whose ground-truth label is negative
// (unlabeled), matching the paper's evaluation on the labeled subsets of
// Table 3.
package eval

import (
	"fmt"
	"math"
)

// filterLabeled returns the (pred, truth) pairs with truth ≥ 0. Both
// outputs come from one right-sized allocation (the metric functions are
// called once per method per comparison, so repeated append growth was
// measurable in the table harnesses).
func filterLabeled(pred, truth []int) ([]int, []int) {
	if len(pred) != len(truth) {
		panic(fmt.Sprintf("eval: %d predictions vs %d labels", len(pred), len(truth)))
	}
	n := 0
	for _, g := range truth {
		if g >= 0 {
			n++
		}
	}
	buf := make([]int, 0, 2*n)
	for i, g := range truth {
		if g >= 0 {
			buf = append(buf, pred[i])
		}
	}
	fp := buf
	for _, g := range truth {
		if g >= 0 {
			buf = append(buf, g)
		}
	}
	return fp[:n:n], buf[n:]
}

// Accuracy computes the paper's clustering accuracy
//
//	A(C,G) = (1/n) Σ_{o∈C} max_{g∈G} |o ∩ g|
//
// i.e. each output cluster is assigned the ground-truth class it overlaps
// most (majority vote) and the fraction of correctly covered items is
// returned. Items with truth < 0 are ignored; the result is 0 when no
// labeled items exist.
func Accuracy(pred, truth []int) float64 {
	p, g := filterLabeled(pred, truth)
	if len(g) == 0 {
		return 0
	}
	overlap := map[[2]int]int{}
	for i := range p {
		overlap[[2]int{p[i], g[i]}]++
	}
	best := map[int]int{}
	for key, n := range overlap {
		if n > best[key[0]] {
			best[key[0]] = n
		}
	}
	var correct int
	for _, n := range best {
		correct += n
	}
	return float64(correct) / float64(len(g))
}

// MajorityMapping returns, for each output cluster id, the ground-truth
// class it overlaps most (ties to the smaller class id). Clusters with no
// labeled members are absent from the map.
func MajorityMapping(pred, truth []int) map[int]int {
	p, g := filterLabeled(pred, truth)
	counts := map[int]map[int]int{}
	for i := range p {
		m, ok := counts[p[i]]
		if !ok {
			m = map[int]int{}
			counts[p[i]] = m
		}
		m[g[i]]++
	}
	out := map[int]int{}
	for o, m := range counts {
		bestClass, bestCount := -1, -1
		for cls, n := range m {
			if n > bestCount || (n == bestCount && cls < bestClass) {
				bestClass, bestCount = cls, n
			}
		}
		out[o] = bestClass
	}
	return out
}

// NMI computes the Normalized Mutual Information
//
//	NMI(C,G) = 2·I(C;G) / (H(C)+H(G))
//
// over labeled items. It returns 0 when either partition has zero entropy
// (a single cluster or class) or no labeled items exist.
func NMI(pred, truth []int) float64 {
	p, g := filterLabeled(pred, truth)
	n := len(g)
	if n == 0 {
		return 0
	}
	joint := map[[2]int]float64{}
	pc := map[int]float64{}
	gc := map[int]float64{}
	for i := range p {
		joint[[2]int{p[i], g[i]}]++
		pc[p[i]]++
		gc[g[i]]++
	}
	fn := float64(n)
	var mi float64
	for key, nij := range joint {
		pij := nij / fn
		mi += pij * math.Log(pij/((pc[key[0]]/fn)*(gc[key[1]]/fn)))
	}
	hc := entropy(pc, fn)
	hg := entropy(gc, fn)
	if hc == 0 || hg == 0 {
		return 0
	}
	nmi := 2 * mi / (hc + hg)
	// Clamp tiny numeric excursions outside [0,1].
	if nmi < 0 {
		return 0
	}
	if nmi > 1 {
		return 1
	}
	return nmi
}

func entropy(counts map[int]float64, n float64) float64 {
	var h float64
	for _, c := range counts {
		p := c / n
		if p > 0 {
			h -= p * math.Log(p)
		}
	}
	return h
}

// Metrics bundles the two headline numbers the paper reports.
type Metrics struct {
	Accuracy float64
	NMI      float64
}

// Evaluate computes both metrics at once.
func Evaluate(pred, truth []int) Metrics {
	return Metrics{Accuracy: Accuracy(pred, truth), NMI: NMI(pred, truth)}
}

// Percent formats a [0,1] metric the way the paper's tables print it.
func Percent(v float64) string { return fmt.Sprintf("%.2f", v*100) }
