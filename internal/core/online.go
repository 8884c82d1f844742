package core

import (
	"fmt"
	"math"
	"math/rand"

	"triclust/internal/mat"
	"triclust/internal/sparse"
)

// OnlineConfig extends Config with the temporal parameters of Eq. 19.
// In the online objective α re-weighs the feature temporal regularizer
// α‖Sf(t) − Sfw(t)‖² (the lexicon only seeds the very first snapshot).
type OnlineConfig struct {
	Config
	// Gamma weighs the user temporal regularizer γ‖Su(d,e)(t) − Suw(t)‖².
	Gamma float64
	// Tau ∈ (0,1] is the exponential decay of past results
	// (Sfw(t)=Σ τⁱ Sf(t−i)).
	Tau float64
	// Window is w: a step at t aggregates the snapshots of ages 1 … w−1,
	// i.e. those timed in [t−w+1, t). Retention follows from it: the next
	// step is at t+1 or later, so after a step at t the solver keeps an
	// entry timed s iff s ≥ t−w+2 (see horizon), plus the newest feature
	// snapshot and each user's newest row whatever their age — at most
	// max(1, w−1) feature snapshots and as many rows per user.
	Window int
}

// horizon returns the oldest timestamp a step later than t can still read.
func (c OnlineConfig) horizon(t int) int { return t - c.Window + 2 }

// DefaultOnlineConfig returns the parameters the paper settles on for the
// online experiments (§5.2): α = τ = 0.9, γ = 0.2, β = 0.8, w = 2.
func DefaultOnlineConfig() OnlineConfig {
	cfg := DefaultConfig()
	cfg.Alpha = 0.9
	return OnlineConfig{Config: cfg, Gamma: 0.2, Tau: 0.9, Window: 2}
}

func (c OnlineConfig) withDefaults() OnlineConfig {
	c.Config = c.Config.withDefaults()
	if c.Tau == 0 {
		c.Tau = 0.9
	}
	if c.Window == 0 {
		c.Window = 2
	}
	return c
}

// Validate checks the configuration the solvers would actually run with
// (zero-valued fields are replaced by their defaults before checking, so
// an unset field never fails validation). It returns a descriptive error
// for values the update rules cannot handle: a non-positive window, a
// decay outside (0,1], negative regularizer weights, or a degenerate
// iteration budget.
func (c OnlineConfig) Validate() error {
	d := c.withDefaults()
	if d.K < 1 {
		return fmt.Errorf("core: k must be at least 1 (got %d)", d.K)
	}
	if d.MaxIter < 1 {
		return fmt.Errorf("core: MaxIter must be positive (got %d)", c.MaxIter)
	}
	if d.Alpha < 0 || d.Beta < 0 || d.Gamma < 0 {
		return fmt.Errorf("core: regularizer weights must be non-negative (alpha=%g, beta=%g, gamma=%g)",
			d.Alpha, d.Beta, d.Gamma)
	}
	if d.Tau <= 0 || d.Tau > 1 {
		return fmt.Errorf("core: temporal decay tau must lie in (0,1] (got %g)", c.Tau)
	}
	if d.Window < 1 {
		return fmt.Errorf("core: history window must be positive (got %d)", c.Window)
	}
	return nil
}

// temporalUser carries the per-snapshot user history terms consumed by
// updateSu (Eq. 24 for rows without history, Eq. 26 for rows with one)
// and by Loss.
type temporalUser struct {
	gamma   float64
	suw     *mat.Dense // m_t×k; zero rows where hasHist is false
	hasHist []bool
	sfPrior *mat.Dense // Sfw(t); replaces Sf0 in the Sf update and loss
}

// maskRowsWithoutHistory zeroes the rows of d belonging to users without
// history so the γ terms only touch evolving/disappeared users.
func (tr *temporalUser) maskRowsWithoutHistory(d *mat.Dense) {
	for i, ok := range tr.hasHist {
		if ok {
			continue
		}
		row := d.Row(i)
		for j := range row {
			row[j] = 0
		}
	}
}

// addTemporalTerms adds γ·Suw to the numerator and γ·Su to the denominator
// on rows with history (the extra terms of Eq. 26 relative to Eq. 24).
func (tr *temporalUser) addTemporalTerms(numer, denom, su *mat.Dense) {
	for i, ok := range tr.hasHist {
		if !ok {
			continue
		}
		nrow, drow := numer.Row(i), denom.Row(i)
		wrow, srow := tr.suw.Row(i), su.Row(i)
		for j := range nrow {
			nrow[j] += tr.gamma * wrow[j]
			drow[j] += tr.gamma * srow[j]
		}
	}
}

type sfSnapshot struct {
	time int
	sf   *mat.Dense
	// seen[j] is true when feature j actually occurred in the
	// snapshot's data; rows of sf for unseen words carry no evidence.
	seen []bool
}

// userRows is the retained Su history of every user, indexed by user id.
// Layer d is one users×k slab holding each user's d-th oldest retained row:
// user u holds n[u] rows, in layers 0 … n[u]−1, oldest first. A layer is
// added when some user comes to hold that many rows, so the depth follows
// the rows actually held — never Window, which arrives from outside
// unbounded.
type userRows struct {
	k      int
	n      []int
	layers []userLayer
	known  int // users holding at least one row
}

type userLayer struct {
	times []int
	rows  []float64
}

func (l *userLayer) row(u, k int) []float64 { return l.rows[u*k : (u+1)*k] }

// held returns how many rows user u holds (0 for an id never recorded).
func (h *userRows) held(u int) int {
	if u < 0 || u >= len(h.n) {
		return 0
	}
	return h.n[u]
}

// newest returns user u's most recent row, or nil if u holds none.
func (h *userRows) newest(u int) []float64 {
	if n := h.held(u); n > 0 {
		return h.layers[n-1].row(u, h.k)
	}
	return nil
}

// grow extends the id index (and every layer) to cover ids below users.
func (h *userRows) grow(users int) {
	extra := users - len(h.n)
	if extra <= 0 {
		return
	}
	h.n = append(h.n, make([]int, extra)...)
	for d := range h.layers {
		l := &h.layers[d]
		l.times = append(l.times, make([]int, extra)...)
		l.rows = append(l.rows, make([]float64, extra*h.k)...)
	}
}

// push records row as user u's newest, first dropping u's rows older than
// minTime — the only place a user's history shrinks.
func (h *userRows) push(u, t, minTime int, row []float64) {
	h.grow(u + 1)
	n := h.n[u]
	if n == 0 {
		h.known++
	}
	drop := 0
	for drop < n && h.layers[drop].times[u] < minTime {
		drop++
	}
	for d := drop; d < n; d++ { // the survivors move down
		h.layers[d-drop].times[u] = h.layers[d].times[u]
		copy(h.layers[d-drop].row(u, h.k), h.layers[d].row(u, h.k))
	}
	n -= drop
	if n == len(h.layers) {
		h.layers = append(h.layers, userLayer{
			times: make([]int, len(h.n)),
			rows:  make([]float64, len(h.n)*h.k),
		})
	}
	h.layers[n].times[u] = t
	copy(h.layers[n].row(u, h.k), row)
	h.n[u] = n + 1
}

// Online is the stateful dynamic tri-clustering solver (Algorithm 2).
// Feed it one snapshot per timestamp via Step; it carries the decayed
// history Sfw / Suw across calls.
//
// Beyond the algorithmic state the solver owns the per-step scratch — a
// persistent kernel workspace and the temporal-aggregate buffers — and a
// recorded snapshot takes over the storage of the one it displaces, so a
// long stream of Steps allocates only the result factors that escape to
// the caller.
type Online struct {
	cfg    OnlineConfig
	sfHist []sfSnapshot
	users  userRows
	lastHp *mat.Dense
	lastHu *mat.Dense
	src    *countingSource
	rng    *rand.Rand

	// Reused per-step scratch (never escapes a Step call).
	ws      *mat.Workspace
	tr      temporalUser
	suw     *mat.Dense
	acc     *mat.Dense
	seenAny []bool
}

// NewOnline returns a solver with empty history. Its random stream is
// drawn through a draw-counting source so the solver's exact position in
// the stream can be exported and replayed (see OnlineState).
func NewOnline(cfg OnlineConfig) *Online {
	cfg = cfg.withDefaults()
	src := newCountingSource(cfg.Seed)
	return &Online{
		cfg:   cfg,
		users: userRows{k: cfg.K},
		src:   src,
		rng:   rand.New(src),
		ws:    mat.NewWorkspace(),
	}
}

// Config returns the solver's configuration.
func (o *Online) Config() OnlineConfig { return o.cfg }

// RandDraws returns the number of raw draws consumed from the seeded
// random source so far — the solver's exact position in its replayable
// random stream. Journal records store it as a replay fingerprint.
func (o *Online) RandDraws() uint64 { return o.src.n }

// HistoryLen returns the number of feature snapshots currently retained.
func (o *Online) HistoryLen() int { return len(o.sfHist) }

// Step processes the snapshot at timestamp t. p holds the snapshot's
// matrices with tweets and *active users* locally indexed; active[i] is
// the global id of local user i (so history can follow users across
// snapshots): a non-negative index into the caller's user universe — the
// history is indexed by it, so it grows to the largest id seen.
// Timestamps must be strictly increasing across calls.
func (o *Online) Step(t int, p *Problem, active []int) (*Result, error) {
	return o.StepIf(t, p, active, nil)
}

// StepIf is Step with a commit point: after the solve, durable is handed
// the random-stream position the solver holds once the step is taken, and
// the step is taken — recorded into the history — only if durable returns
// nil. Otherwise the stream is rewound and StepIf returns durable's error:
// nothing a later step or an export reads has changed. A nil durable takes
// every step.
func (o *Online) StepIf(t int, p *Problem, active []int, durable func(randDraws uint64) error) (*Result, error) {
	if err := p.Validate(o.cfg.K); err != nil {
		return nil, err
	}
	if len(active) != p.Xu.Rows() {
		return nil, fmt.Errorf("core: %d active users for %d Xu rows", len(active), p.Xu.Rows())
	}
	for _, g := range active {
		if g < 0 {
			return nil, fmt.Errorf("core: negative user id %d", g)
		}
	}
	if n := len(o.sfHist); n > 0 && o.sfHist[n-1].time >= t {
		return nil, fmt.Errorf("core: non-increasing timestamp %d after %d", t, o.sfHist[n-1].time)
	}
	from := o.src.n
	cfg, tr, f := o.begin(t, p, active)
	res := iterate(p, f, cfg, tr, onlineOrder, o.ws)
	if durable != nil {
		if err := durable(o.src.n); err != nil {
			o.src.skip(from)
			return nil, err
		}
	}
	o.end(t, p, &f, active)
	return res, nil
}

// begin sets a checked step up, lines 1–2 of Algorithm 2: the weights
// rescaled to the snapshot, the temporal terms, and the factors the sweeps
// start from.
func (o *Online) begin(t int, p *Problem, active []int) (Config, *temporalUser, Factors) {
	cfg := o.cfg
	// Rescale the relative weights to this snapshot's data magnitude
	// (see regScales).
	aScale, bScale, gScale := regScales(p)
	cfg.Alpha *= aScale
	cfg.Beta *= bScale

	tr := o.buildTemporal(t, p, active)
	tr.gamma = o.cfg.Gamma * gScale

	// Line 1 of Algorithm 2: initialize Sf(t) = Sfw(t) and
	// Su(d,e)(t) = Suw(t); line 2: random init for the rest (see
	// initFactors for what the prior and the previous cores seed beyond
	// the letter of the algorithm).
	f := initFactors(p, cfg.Config, o.rng, tr.sfPrior, o.lastHp, o.lastHu)
	for i, ok := range tr.hasHist {
		if ok {
			copy(f.Su.Row(i), tr.suw.Row(i))
			for j, v := range f.Su.Row(i) {
				if v <= 0 {
					f.Su.Row(i)[j] = 1e-6
				}
			}
		}
	}
	return cfg.Config, tr, f
}

// end keeps what the next step reads of this one: the cores it warm-starts
// from and the history record.
func (o *Online) end(t int, p *Problem, f *Factors, active []int) {
	if o.lastHp != nil && o.lastHp.Dims(f.Hp.Rows(), f.Hp.Cols()) {
		o.lastHp.CopyFrom(f.Hp)
		o.lastHu.CopyFrom(f.Hu)
	} else {
		o.lastHp, o.lastHu = f.Hp.Clone(), f.Hu.Clone()
	}
	o.record(t, p, f, active)
}

// buildTemporal assembles Sfw(t), Suw(t) and the history mask from the
// retained snapshots within [t−w+1, t) as the τ-decayed weighted average
//
//	Sfw(t) = Σᵢ τ^(i−1) Sf(t−i) / Σᵢ τ^(i−1)
//
// i.e. τ is a pure recency weight ("an exponential decay is used to
// forget out-of-date results", §4). Eq. 18's literal unnormalized sum
// also scales the target magnitude by Στⁱ, which couples τ to the
// factorization's scale and destabilizes the multiplicative updates
// (small τ shrinks the prior toward zero, collapsing clusters); the
// normalized form keeps the paper's forgetting semantics with the target
// on the scale of one snapshot. An empty window falls back to the lexicon
// prior, matching the offline framework's behaviour on the first snapshot.
func (o *Online) buildTemporal(t int, p *Problem, active []int) *temporalUser {
	cfg := o.cfg
	tr := &o.tr
	*tr = temporalUser{gamma: cfg.Gamma, hasHist: reuseBools(tr.hasHist, len(active))}
	o.suw = mat.ReuseDense(o.suw, len(active), cfg.K)
	tr.suw = o.suw

	var totalW float64
	var acc *mat.Dense
	var seenAny []bool
	for _, s := range o.sfHist {
		age := t - s.time
		if age < 1 || age >= cfg.Window {
			continue
		}
		w := math.Pow(cfg.Tau, float64(age-1))
		if acc == nil {
			o.acc = mat.ReuseDense(o.acc, s.sf.Rows(), s.sf.Cols())
			acc = o.acc
			seenAny = reuseBools(o.seenAny, s.sf.Rows())
			o.seenAny = seenAny
		}
		acc.AddScaled(acc, w, s.sf)
		for j, sj := range s.seen {
			if sj && j < len(seenAny) {
				seenAny[j] = true
			}
		}
		totalW += w
	}
	if acc != nil && totalW > 0 && acc.Rows() == p.Xp.Cols() {
		acc.Scale(1/totalW, acc)
		// Words that never occurred inside the window left no
		// "intermediate clustering results" to utilize — their history
		// rows are pure solver noise. Fall back to the lexicon prior
		// for those rows (the offline behaviour), keeping the learned
		// rows for words with actual evidence.
		if p.Sf0 != nil {
			for j, sj := range seenAny {
				if !sj {
					copy(acc.Row(j), p.Sf0.Row(j))
				}
			}
		}
		tr.sfPrior = acc
	} else if p.Sf0 != nil {
		// First snapshot, empty window or vocabulary mismatch: fall back
		// to the lexicon prior, as in the offline framework.
		tr.sfPrior = p.Sf0
	}

	// Suw rows per active user: the same normalized decayed average, over
	// the user's own rows, oldest first.
	for i, g := range active {
		var wsum float64
		row := tr.suw.Row(i)
		for d, n := 0, o.users.held(g); d < n; d++ {
			l := &o.users.layers[d]
			age := t - l.times[g]
			if age < 1 || age >= cfg.Window {
				continue
			}
			w := math.Pow(cfg.Tau, float64(age-1))
			for j, v := range l.row(g, cfg.K) {
				row[j] += w * v
			}
			wsum += w
		}
		if wsum > 0 {
			tr.hasHist[i] = true
			for j := range row {
				row[j] /= wsum
			}
		}
	}
	return tr
}

// record retains the snapshot's Sf and the active users' Su rows, dropping
// what no later step can read (see OnlineConfig.Window). Sf is stored
// row-normalized: on a thin snapshot most vocabulary words receive no data
// evidence and their rows only shrink (the denominator's global k×k term
// applies to every row), so recording raw magnitudes would compound into a
// collapsing feature memory across snapshots; the row's class
// *distribution* is the information Observation 1 says persists.
func (o *Online) record(t int, p *Problem, f *Factors, active []int) {
	minTime := o.cfg.horizon(t)
	dead := 0
	for dead < len(o.sfHist) && o.sfHist[dead].time < minTime {
		dead++
	}
	// The new snapshot takes over the storage of a dropped one; at a steady
	// cadence exactly one drops per step, so a warm history allocates
	// nothing.
	var s sfSnapshot
	if dead > 0 {
		s = o.sfHist[dead-1]
	}
	o.sfHist = append(o.sfHist[:0], o.sfHist[dead:]...)
	s.time = t
	s.sf = mat.ReuseDense(s.sf, f.Sf.Rows(), f.Sf.Cols())
	s.sf.CopyFrom(f.Sf)
	s.sf.NormalizeRowsL1()
	s.seen = reuseBools(s.seen, p.Xp.Cols())
	markNonzeroCols(s.seen, p.Xp)
	markNonzeroCols(s.seen, p.Xu)
	o.sfHist = append(o.sfHist, s)

	for i, g := range active {
		o.users.push(g, t, minTime, f.Su.Row(i))
	}
}

// markNonzeroCols sets seen[j] for every column j holding a non-zero
// entry of m (the allocation-free form of the two ColSums scans).
func markNonzeroCols(seen []bool, m *sparse.CSR) {
	for i := 0; i < m.Rows(); i++ {
		cols, vals := m.Row(i)
		for p, j := range cols {
			if vals[p] != 0 && j < len(seen) {
				seen[j] = true
			}
		}
	}
}

// reuseBools returns a false-filled slice of length n, reusing s's
// backing array when possible.
func reuseBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = false
	}
	return s
}

// VisitUserEstimates calls fn once per user with recorded history, in
// increasing id order, passing the user's global id and most recent Su
// row. The row is the solver's own storage: fn must copy what it keeps and
// must not mutate it.
func (o *Online) VisitUserEstimates(fn func(user int, row []float64)) {
	for g := range o.users.n {
		if row := o.users.newest(g); row != nil {
			fn(g, row)
		}
	}
}

// LastTime returns the timestamp of the most recent processed snapshot,
// or ok = false before the first one. It survives snapshot/restore: the
// retained feature history always includes the latest snapshot.
func (o *Online) LastTime() (t int, ok bool) {
	if n := len(o.sfHist); n > 0 {
		return o.sfHist[n-1].time, true
	}
	return 0, false
}
