// Package conform synthesizes stream-conformance invariants from the
// batches a topic has already accepted and scores every incoming batch
// against them, so drifted, mis-routed or garbage feeds are caught at
// ingest instead of silently degrading estimates.
//
// A Profile accumulates per-batch statistics — token rate, OOV rate,
// tokens-per-tweet shape, user-activity concentration, duplicate-tweet
// rate, timestamp step and in-batch time spread — as online mean/variance
// accumulators (Welford). Once MinSamples batches are observed, each new
// batch is scored before it is applied: every invariant gets a z-score
// against the learned distribution (with a per-invariant floor on the
// standard deviation, so constant streams do not quarantine on the first
// epsilon of noise), and the verdict classifies the batch as conforming,
// flagged (|z| >= FlagZ on some invariant) or quarantined
// (|z| >= QuarantineZ).
//
// The profile is part of the topic's durable state: it accumulates
// deterministically from the accepted batch sequence, exports as a
// ProfileState value (state.go), which the snapshot codec writes as one
// section (internal/codec), and therefore survives snapshot/restore,
// journal replay and replica promotion bit-identically.
// Scoring itself never mutates the profile — only Observe does, and only
// for batches that were actually applied — so rejecting a batch leaves
// the durable state untouched and modes that merely differ in what they
// do with the verdict (off / flag / enforce) produce byte-identical
// snapshots on a conforming stream.
//
// The package is self-contained on purpose: it imports neither the
// engine nor the daemon (TestArchLayering in arch_test.go pins this), so
// the same gate can front any ingestion tier that can phrase a batch as
// an Observation.
package conform

import (
	"fmt"
	"math"
)

// Mode selects what a caller does with a verdict. The mode is a runtime
// setting, not part of the profile: accumulation and scoring run
// identically in every mode, so switching modes never forks the stream.
type Mode int

const (
	// Off scores and accumulates but surfaces nothing.
	Off Mode = iota
	// Flag annotates accepted batches with their verdict.
	Flag
	// Enforce rejects quarantined batches before they are applied.
	Enforce
)

// ParseMode parses the -conform-mode flag values.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "off":
		return Off, nil
	case "flag":
		return Flag, nil
	case "enforce":
		return Enforce, nil
	}
	return Off, fmt.Errorf("conform: unknown mode %q (want off, flag or enforce)", s)
}

// String returns the flag spelling of the mode.
func (m Mode) String() string {
	switch m {
	case Flag:
		return "flag"
	case Enforce:
		return "enforce"
	}
	return "off"
}

// Params tune when scoring starts and where the thresholds sit.
// Zero-valued fields select the defaults.
type Params struct {
	// MinSamples is the number of observed batches an invariant needs
	// before it is scored (default 8). Per-invariant: an invariant that
	// starts later (OOV rate needs a frozen vocabulary, the timestamp
	// step needs a previous batch) waits for its own sample count.
	MinSamples int
	// FlagZ is the |z| at or above which a batch is flagged (default 4).
	FlagZ float64
	// QuarantineZ is the |z| at or above which a batch is quarantined
	// (default 8). Must be >= FlagZ.
	QuarantineZ float64
}

// DefaultParams returns the default thresholds.
func DefaultParams() Params {
	return Params{MinSamples: 8, FlagZ: 4, QuarantineZ: 8}
}

func (p Params) withDefaults() Params {
	d := DefaultParams()
	if p.MinSamples == 0 {
		p.MinSamples = d.MinSamples
	}
	if p.FlagZ == 0 {
		p.FlagZ = d.FlagZ
	}
	if p.QuarantineZ == 0 {
		p.QuarantineZ = d.QuarantineZ
	}
	return p
}

// Validate reports parameters scoring cannot run with, after filling
// defaults (so zero-valued fields never fail).
func (p Params) Validate() error {
	d := p.withDefaults()
	if d.MinSamples < 1 || d.MinSamples > maxMinSamples {
		return fmt.Errorf("conform: MinSamples must lie in [1, %d] (got %d)", maxMinSamples, d.MinSamples)
	}
	if !(d.FlagZ > 0) || math.IsInf(d.FlagZ, 0) {
		return fmt.Errorf("conform: FlagZ must be a positive finite number (got %g)", d.FlagZ)
	}
	if !(d.QuarantineZ > 0) || math.IsInf(d.QuarantineZ, 0) {
		return fmt.Errorf("conform: QuarantineZ must be a positive finite number (got %g)", d.QuarantineZ)
	}
	if d.FlagZ > d.QuarantineZ {
		return fmt.Errorf("conform: FlagZ (%g) must not exceed QuarantineZ (%g)", d.FlagZ, d.QuarantineZ)
	}
	return nil
}

const maxMinSamples = 1 << 30

// Observation is one batch reduced to the numbers the invariants watch.
// The producer (the engine) computes it from the canonicalized batch; the
// package never sees tweets.
type Observation struct {
	// Tweets and Tokens count the batch's size and total feature tokens.
	Tweets, Tokens int
	// OOVTokens counts tokens absent from the frozen vocabulary; OOVValid
	// reports whether the vocabulary was frozen when the batch arrived
	// (before the freeze every token is "new" by construction, so the
	// rate is meaningless and not observed).
	OOVTokens int
	OOVValid  bool
	// MaxUserTweets is the largest number of tweets any single user
	// contributed to the batch.
	MaxUserTweets int
	// Dups counts tweets identical to their predecessor in the canonical
	// (time, user, tokens) ordering — exact duplicates.
	Dups int
	// TimeStep is the batch timestamp minus the previous non-empty
	// batch's; StepValid reports whether a previous batch existed.
	TimeStep  int
	StepValid bool
	// TimeSpread is the max-minus-min tweet Time within the batch.
	TimeSpread int
}

// The invariants, in the order a snapshot writes them. Adding one changes
// ProfileState.Metrics and so the snapshot's profile section (a new
// profile version in internal/codec); reordering is forbidden.
const (
	mTokenRate = iota
	mTokensPerTweet
	mOOVRate
	mUserConcentration
	mDupRate
	mTimeStep
	mTimeSpread
	numMetrics
)

var metricNames = [numMetrics]string{
	mTokenRate:         "token_rate",
	mTokensPerTweet:    "tokens_per_tweet",
	mOOVRate:           "oov_rate",
	mUserConcentration: "user_concentration",
	mDupRate:           "dup_rate",
	mTimeStep:          "time_step",
	mTimeSpread:        "time_spread",
}

// stdFloor is the minimum standard deviation used when scoring metric m
// whose learned mean is mean: a warmed-up stream with near-constant shape
// must not quarantine the first batch that differs by an epsilon, so the
// divisor never drops below a scale natural to the metric (0.05 for the
// rate-like metrics, which live in [0, 1]; one token / one time unit,
// or 10% of the mean, for the count-like ones).
func stdFloor(m int, mean float64) float64 {
	switch m {
	case mOOVRate, mUserConcentration, mDupRate:
		return 0.05
	case mTokensPerTweet:
		return math.Max(0.5, 0.1*math.Abs(mean))
	default: // token_rate, time_step, time_spread
		return math.Max(1, 0.1*math.Abs(mean))
	}
}

func (m *MetricState) add(x float64) {
	m.N++
	if m.N == 1 {
		m.Mean, m.Min, m.Max = x, x, x
		return
	}
	d := x - m.Mean
	m.Mean += d / float64(m.N)
	m.M2 += d * (x - m.Mean)
	if x < m.Min {
		m.Min = x
	}
	if x > m.Max {
		m.Max = x
	}
}

func (m *MetricState) std() float64 {
	if m.N < 2 {
		return 0
	}
	return math.Sqrt(m.M2 / float64(m.N))
}

// driftAlpha is the EWMA weight of the drift trend: each scored batch's
// worst |z| folds into the running drift signal with this weight.
const driftAlpha = 0.2

// Profile is the synthesized conformance model of one stream: the
// per-invariant accumulators, the scoring thresholds and the verdict
// counters. It is not safe for concurrent use; the owning session
// serializes access (scoring and observation happen under the session
// lock, on the ingest path).
type Profile struct {
	s ProfileState
}

// NewProfile builds an empty profile with the given thresholds
// (zero-valued fields select the defaults).
func NewProfile(p Params) *Profile {
	return &Profile{s: ProfileState{Params: p.withDefaults()}}
}

// Ready reports whether enough batches were observed for scoring to
// produce verdicts.
func (p *Profile) Ready() bool {
	return p.s.Observed >= uint64(p.s.Params.MinSamples)
}

// values extracts the per-invariant sample values of one observation;
// ok[i] reports whether invariant i is defined for this batch.
func values(o Observation) (vals [numMetrics]float64, ok [numMetrics]bool) {
	if o.Tweets <= 0 {
		return vals, ok
	}
	tw := float64(o.Tweets)
	vals[mTokenRate], ok[mTokenRate] = float64(o.Tokens), true
	vals[mTokensPerTweet], ok[mTokensPerTweet] = float64(o.Tokens)/tw, true
	if o.OOVValid && o.Tokens > 0 {
		vals[mOOVRate], ok[mOOVRate] = float64(o.OOVTokens)/float64(o.Tokens), true
	}
	vals[mUserConcentration], ok[mUserConcentration] = float64(o.MaxUserTweets)/tw, true
	vals[mDupRate], ok[mDupRate] = float64(o.Dups)/tw, true
	if o.StepValid {
		vals[mTimeStep], ok[mTimeStep] = float64(o.TimeStep), true
	}
	vals[mTimeSpread], ok[mTimeSpread] = float64(o.TimeSpread), true
	return vals, ok
}

// Status classifies a scored batch.
type Status string

const (
	Conforming  Status = "conforming"
	Flagged     Status = "flagged"
	Quarantined Status = "quarantined"
)

// Score is one invariant's z-score against the profile.
type Score struct {
	// Invariant names the constraint (token_rate, oov_rate, ...).
	Invariant string
	// Value is the batch's value; Mean / Std the learned distribution
	// (Std already floored, so Z = |Value-Mean| / Std exactly).
	Value, Mean, Std float64
	// Z is the absolute z-score.
	Z float64
}

// Verdict is the structured result of scoring one batch.
type Verdict struct {
	Status Status
	// Scores lists every invariant that was defined for this batch and
	// had enough samples, in invariant order.
	Scores []Score
	// Violated names the invariants at or above the flag threshold,
	// in invariant order; nil when conforming.
	Violated []string
	// Worst is the invariant with the largest |z| ("" if none scored);
	// MaxZ its score.
	Worst string
	MaxZ  float64
}

// Score scores one batch against the profile without mutating it. It
// returns ok = false (and a zero verdict) when no invariant has reached
// MinSamples yet — warm-up batches are observed, never judged.
func (p *Profile) Score(o Observation) (Verdict, bool) {
	var v Verdict
	if !p.Ready() || o.Tweets <= 0 {
		return v, false
	}
	vals, def := values(o)
	minN := uint64(p.s.Params.MinSamples)
	v.Scores = make([]Score, 0, numMetrics)
	for i := 0; i < numMetrics; i++ {
		m := &p.s.Metrics[i]
		if !def[i] || m.N < minN {
			continue
		}
		std := math.Max(stdFloor(i, m.Mean), m.std())
		z := math.Abs(vals[i]-m.Mean) / std
		v.Scores = append(v.Scores, Score{
			Invariant: metricNames[i],
			Value:     vals[i],
			Mean:      m.Mean,
			Std:       std,
			Z:         z,
		})
		if z > v.MaxZ {
			v.MaxZ = z
			v.Worst = metricNames[i]
		}
	}
	if len(v.Scores) == 0 {
		return Verdict{}, false
	}
	v.Status = Conforming
	for _, s := range v.Scores {
		if s.Z >= p.s.Params.FlagZ {
			v.Violated = append(v.Violated, s.Invariant)
			if v.Status != Quarantined {
				v.Status = Flagged
			}
		}
		if s.Z >= p.s.Params.QuarantineZ {
			v.Status = Quarantined
		}
	}
	return v, true
}

// Observe folds an applied batch into the profile: the invariant
// accumulators always, and — when the batch was scored — the verdict
// counters and the drift EWMA. Call it only for batches that were
// actually applied, after Score, so batch k is always judged by the
// profile of batches 1..k-1 and a rejected batch leaves no trace.
func (p *Profile) Observe(o Observation, v *Verdict) {
	if o.Tweets <= 0 {
		return
	}
	vals, def := values(o)
	for i := 0; i < numMetrics; i++ {
		if def[i] {
			p.s.Metrics[i].add(vals[i])
		}
	}
	p.s.Observed++
	if v != nil {
		p.s.Scored++
		switch v.Status {
		case Flagged:
			p.s.Flagged++
		case Quarantined:
			p.s.Quarantined++
		}
		p.s.PrevDrift = p.s.Drift
		p.s.Drift = (1-driftAlpha)*p.s.Drift + driftAlpha*v.MaxZ
	}
}

// MetricStats is one invariant's learned distribution, for reports.
type MetricStats struct {
	Invariant string
	Samples   uint64
	Mean, Std float64
	Min, Max  float64
}

// Report is a read-only summary of the profile, materialized once per
// committed batch for the read plane (healthz, ConformanceReport). It is
// derived purely from the profile, so two topics with equal profiles
// report equal values — on any replica, after any restore or replay.
type Report struct {
	Params Params
	// Ready reports whether scoring has started; Observed / Scored /
	// Flagged / Quarantined are the batch counters (quarantined counts
	// batches whose verdict was quarantine but that were applied anyway —
	// flag or off mode; enforce-rejected batches are not in durable
	// state and are counted by the daemon instead).
	Ready                                  bool
	Observed, Scored, Flagged, Quarantined uint64
	// Drift is the EWMA of the scored batches' worst |z|; Trend reports
	// whether the most recent batch moved it up ("rising"), down
	// ("falling") or not meaningfully ("flat").
	Drift float64
	Trend string
	// Metrics lists the learned per-invariant distributions, in invariant
	// order, omitting invariants with no samples yet.
	Metrics []MetricStats
}

// Report materializes the profile's current summary.
func (p *Profile) Report() *Report {
	r := &Report{
		Params:      p.s.Params,
		Ready:       p.Ready(),
		Observed:    p.s.Observed,
		Scored:      p.s.Scored,
		Flagged:     p.s.Flagged,
		Quarantined: p.s.Quarantined,
		Drift:       p.s.Drift,
		Trend:       "flat",
	}
	const eps = 1e-9
	switch {
	case p.s.Drift > p.s.PrevDrift+eps:
		r.Trend = "rising"
	case p.s.Drift < p.s.PrevDrift-eps:
		r.Trend = "falling"
	}
	r.Metrics = make([]MetricStats, 0, numMetrics)
	for i := 0; i < numMetrics; i++ {
		m := &p.s.Metrics[i]
		if m.N == 0 {
			continue
		}
		r.Metrics = append(r.Metrics, MetricStats{
			Invariant: metricNames[i],
			Samples:   m.N,
			Mean:      m.Mean,
			Std:       m.std(),
			Min:       m.Min,
			Max:       m.Max,
		})
	}
	return r
}

// BatchError is the typed rejection of a nonconforming batch in enforce
// mode. The batch was not applied: no state advanced, no timestamp was
// consumed, and the profile is exactly as before.
type BatchError struct {
	Verdict Verdict
}

func (e *BatchError) Error() string {
	v := &e.Verdict
	if len(e.Verdict.Violated) > 1 {
		return fmt.Sprintf("conform: batch nonconforming: %s (z=%.1f; violated: %v)",
			v.Worst, v.MaxZ, v.Violated)
	}
	return fmt.Sprintf("conform: batch nonconforming: %s (z=%.1f)", v.Worst, v.MaxZ)
}
