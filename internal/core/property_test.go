package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"triclust/internal/mat"
	"triclust/internal/sparse"
)

// The solver's guard rail: over generated problems, the degenerate shapes
// among them, no single multiplicative update makes a factor entry
// negative or NaN, and the objective rises no more than the largest rise
// this generator finds, after one update and from sweep to sweep.
//
// The paper's auxiliary-function argument makes each rule non-increasing
// for a fixed Lagrange multiplier Δ; the rules evaluate Δ at the current
// iterate, which the argument does not cover, and on these small problems
// the objective does rise — by up to 9 % a sweep offline and 53 % online,
// against at most 0.054 % on the synthetic corpora of
// TestOnlineStepObjectiveNonIncreasing. So the fixture tests keep their
// 2 % bound: the generator's rise is no tighter bound for them.

// offlineRises and onlineRises are the largest relative rises of the
// objective the generator finds (logged under -v), rounded up in the
// second significant digit.
var (
	offlineRises = rises{update: 0.49, sweep: 0.090}
	onlineRises  = rises{update: 1.4, sweep: 0.53}
)

// shape is a kind of generated problem.
type shape int

const (
	plain      shape = iota
	emptyRows        // a third of the tweets hold no vocabulary word
	singleUser       // one user wrote every tweet
	allOOV           // no tweet holds a vocabulary word: Xp and Xu are empty
	zeroDegree       // half the users have no retweet edge
	shapes
)

func (s shape) String() string {
	return [...]string{"plain", "empty rows", "single user", "all OOV", "zero degree"}[s]
}

// genProblem draws a problem of shape s with m users (m = 1 for a single
// user): up to 24 tweets, each by one user, over up to 15 features, with
// Xu the sum of each user's tweet rows, a symmetric retweet graph and a
// lexicon prior that lists about a third of the features.
func genProblem(rng *rand.Rand, s shape, m, k int) *Problem {
	if s == singleUser {
		m = 1
	}
	n, l := 1+rng.Intn(24), 2+rng.Intn(14)
	xp, xu, xr := sparse.NewCOO(n, l), sparse.NewCOO(m, l), sparse.NewCOO(m, n)
	for i := 0; i < n; i++ {
		u := rng.Intn(m)
		xr.Add(u, i, 1)
		if s == allOOV || s == emptyRows && rng.Intn(3) == 0 {
			continue
		}
		for w := 1 + rng.Intn(4); w > 0; w-- {
			j, v := rng.Intn(l), 0.1+rng.Float64()
			xp.Add(i, j, v)
			xu.Add(u, j, v)
		}
	}
	gu := sparse.NewCOO(m, m)
	linked := m
	if s == zeroDegree {
		linked = (m + 1) / 2
	}
	for e := rng.Intn(2*m + 1); e > 0; e-- {
		if a, b := rng.Intn(linked), rng.Intn(linked); a != b {
			gu.Add(a, b, 1)
		}
	}
	sf0 := mat.NewDense(l, k)
	for j := 0; j < l; j++ {
		row := sf0.Row(j)
		for c := range row {
			row[c] = 1 / float64(k)
		}
		if rng.Intn(3) == 0 {
			for c := range row {
				row[c] = 0.2 / float64(k-1)
			}
			row[rng.Intn(k)] = 0.8
		}
	}
	return &Problem{Xp: xp.ToCSR(), Xu: xu.ToCSR(), Xr: xr.ToCSR(), Gu: sparse.Symmetrize(gu.ToCSR()), Sf0: sf0}
}

// rises records the largest relative rises of the objective seen.
type rises struct{ update, sweep float64 }

func (r *rises) merge(o rises) { r.update, r.sweep = max(r.update, o.update), max(r.sweep, o.sweep) }

// rise is cur's relative rise over prev: 0 for none, +Inf for a rise from 0.
func rise(prev, cur float64) float64 {
	switch {
	case cur <= prev:
		return 0
	case prev <= 0:
		return math.Inf(1)
	}
	return cur/prev - 1
}

// sweepChecked runs cfg.MaxIter sweeps of order over f as iterate does, one
// update at a time. It fails on a negative factor entry, and reports
// whether every entry stayed finite — a NaN or an infinity ends the run —
// and the largest rises of the objective it saw.
func sweepChecked(t *testing.T, what string, p *Problem, f Factors, cfg Config, tr *temporalUser, order []update) (finite bool, seen rises) {
	t.Helper()
	ws := mat.NewWorkspace()
	one := cfg
	one.MaxIter, one.Tol = 1, -1
	prev, prevSweep := Loss(p, &f, cfg, tr, ws).Total, math.NaN()
	for it := 0; it < cfg.MaxIter; it++ {
		for _, u := range order {
			cur := iterate(p, f, one, tr, []update{u}, ws).History[0].Total
			for name, m := range map[string]*mat.Dense{"Sp": f.Sp, "Su": f.Su, "Sf": f.Sf, "Hp": f.Hp, "Hu": f.Hu} {
				if i := slices.IndexFunc(m.Data(), func(v float64) bool { return v < 0 }); i >= 0 {
					t.Fatalf("%s, sweep %d, update %d: %s[%d] = %v", what, it, u, name, i, m.Data()[i])
				}
				if !m.IsFinite() {
					return false, seen
				}
			}
			seen.update = max(seen.update, rise(prev, cur))
			prev = cur
		}
		if it > 0 {
			seen.sweep = max(seen.sweep, rise(prevSweep, prev))
		}
		prevSweep = prev
	}
	return true, seen
}

// checkRises fails a finite run whose objective rose past the bounds.
func checkRises(t *testing.T, what string, r, bound rises) {
	t.Helper()
	if r.update > bound.update || r.sweep > bound.sweep {
		t.Errorf("%s: the objective rose %.3g after one update and %.3g from sweep to sweep; the bounds are %.3g and %.3g",
			what, r.update, r.sweep, bound.update, bound.sweep)
	}
}

// TestOfflineUpdateProperties: Algorithm 1 on 200 generated problems,
// 40 of each shape, at k = 2 and 3.
func TestOfflineUpdateProperties(t *testing.T) {
	var seen rises
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s, k := shape(seed%int64(shapes)), 2+int(seed/int64(shapes))%2
		p := genProblem(rng, s, 1+rng.Intn(8), k)
		cfg := DefaultConfig()
		cfg.K, cfg.MaxIter, cfg.Tol, cfg.Seed = k, 30, -1, seed
		cfg, f := beginOffline(p, cfg.withDefaults())
		what := fmt.Sprintf("seed %d (%v, k=%d)", seed, s, k)
		finite, r := sweepChecked(t, what, p, f, cfg, nil, offlineOrder)
		if !finite {
			t.Fatalf("%s: a factor entry is not finite", what)
		}
		checkRises(t, what, r, offlineRises)
		seen.merge(r)
	}
	t.Logf("largest rise: %.3g after one update, %.3g from sweep to sweep", seen.update, seen.sweep)
}

// knownDivergent lists the generated streams in which an online step takes
// Sf to infinity, by seed, with the step at which it does. It is a defect,
// recorded here so that it stays visible: when a k-column of the cores
// carries next to no data, Eq. 23's Δ⁻ term has no data term against it
// and grows that column of Sf without bound; in ~1 % of the generator's
// steps that ends in an infinity within 30 sweeps, and the stream is then
// NaN. Every other stream must stay finite, and a fix empties the list.
var knownDivergent = map[int64]int{14: 6, 24: 2, 30: 6}

// TestOnlineUpdateProperties: Algorithm 2 over 40 generated streams of six
// steps, each step of a random shape, over a universe of users of which
// each step draws some anew — users with no history — and some again.
func TestOnlineUpdateProperties(t *testing.T) {
	var seen rises
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + int(seed%2)
		cfg := DefaultOnlineConfig()
		cfg.K, cfg.MaxIter, cfg.Tol, cfg.Seed = k, 30, -1, seed
		o := NewOnline(cfg)
		diverged := 0
		for step := 1; step <= 6 && diverged == 0; step++ {
			s := shape(rng.Intn(int(shapes)))
			p := genProblem(rng, s, 1+rng.Intn(8), k)
			active := rng.Perm(12)[:p.Xu.Rows()]
			stepCfg, tr, f := o.begin(step, p, active)
			what := fmt.Sprintf("seed %d, step %d (%v, k=%d)", seed, step, s, k)
			finite, r := sweepChecked(t, what, p, f, stepCfg, tr, onlineOrder)
			if !finite {
				diverged = step
				continue
			}
			checkRises(t, what, r, onlineRises)
			seen.merge(r)
			o.end(step, p, &f, active)
		}
		if diverged != knownDivergent[seed] {
			t.Errorf("seed %d: the stream diverges at step %d, known to at step %d (0: never)", seed, diverged, knownDivergent[seed])
		}
	}
	t.Logf("largest rise: %.3g after one update, %.3g from sweep to sweep", seen.update, seen.sweep)
}
