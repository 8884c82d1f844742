package eval

// AdjustedRandIndex computes the Adjusted Rand Index between a predicted
// clustering and the ground truth over labeled items (truth ≥ 0):
//
//	ARI = (RI − E[RI]) / (max(RI) − E[RI])
//
// using the standard pair-counting formulation on the contingency table.
// It is 1 for identical partitions (up to relabeling), ≈0 for random
// ones, and can be negative for adversarial partitions. Returns 0 when
// fewer than two labeled items exist or a partition is degenerate in a
// way that zeroes the denominator.
func AdjustedRandIndex(pred, truth []int) float64 {
	p, g := filterLabeled(pred, truth)
	n := len(g)
	if n < 2 {
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
	choose2 := func(x float64) float64 { return x * (x - 1) / 2 }

	var sumJoint, sumP, sumG float64
	for _, v := range joint {
		sumJoint += choose2(v)
	}
	for _, v := range pc {
		sumP += choose2(v)
	}
	for _, v := range gc {
		sumG += choose2(v)
	}
	total := choose2(float64(n))
	expected := sumP * sumG / total
	maxIndex := (sumP + sumG) / 2
	denom := maxIndex - expected
	if denom == 0 {
		return 0
	}
	return (sumJoint - expected) / denom
}
