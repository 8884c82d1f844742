package conform

import (
	"math"
	"testing"
)

// steadyObs is a structurally constant batch: 20 tweets, 3 tokens each,
// no OOV, no duplicates, one tweet per user, unit time step, zero spread.
func steadyObs(step bool) Observation {
	return Observation{
		Tweets: 20, Tokens: 60,
		OOVValid:      true,
		MaxUserTweets: 1,
		TimeStep:      1, StepValid: step,
	}
}

// warm observes n steady batches (the first without a time step, like a
// real stream's first batch).
func warm(p *Profile, n int) {
	for i := 0; i < n; i++ {
		p.Observe(steadyObs(i > 0), nil)
	}
}

func TestScoreNotReadyDuringWarmup(t *testing.T) {
	p := NewProfile(Params{})
	for i := 0; i < 7; i++ {
		if _, ok := p.Score(steadyObs(i > 0)); ok {
			t.Fatalf("batch %d scored with only %d samples (MinSamples=8)", i, p.s.Observed)
		}
		p.Observe(steadyObs(i > 0), nil)
	}
	if p.Ready() {
		t.Fatal("profile ready at 7 samples")
	}
}

func TestSteadyStreamConforms(t *testing.T) {
	p := NewProfile(Params{})
	// 9 batches so time_step (which starts one batch late) has its own
	// MinSamples=8 samples too.
	warm(p, 9)
	v, ok := p.Score(steadyObs(true))
	if !ok {
		t.Fatal("warmed profile did not score")
	}
	if v.Status != Conforming {
		t.Fatalf("steady batch scored %s (worst %s z=%.2f)", v.Status, v.Worst, v.MaxZ)
	}
	if len(v.Scores) != numMetrics {
		t.Fatalf("scored %d invariants, want %d", len(v.Scores), numMetrics)
	}
	if v.Violated != nil {
		t.Fatalf("conforming verdict lists violations: %v", v.Violated)
	}
}

// TestModerateJitterNotQuarantined pins the std floors: a stream whose
// shape varies a little (batch sizes 15..25) must neither flag nor
// quarantine a batch inside (or slightly outside) the seen range.
func TestModerateJitterNotQuarantined(t *testing.T) {
	p := NewProfile(Params{})
	for i := 0; i < 12; i++ {
		n := 15 + (i*3)%11
		p.Observe(Observation{
			Tweets: n, Tokens: 3 * n, OOVValid: true,
			MaxUserTweets: 1 + i%2, TimeStep: 1, StepValid: i > 0,
		}, nil)
	}
	v, ok := p.Score(Observation{
		Tweets: 27, Tokens: 27 * 3, OOVValid: true,
		MaxUserTweets: 2, TimeStep: 1, StepValid: true,
	})
	if !ok || v.Status != Conforming {
		t.Fatalf("jittered batch scored %s (worst %s z=%.2f), want conforming", v.Status, v.Worst, v.MaxZ)
	}
}

func TestOOVSpikeQuarantined(t *testing.T) {
	p := NewProfile(Params{})
	warm(p, 10)
	bad := steadyObs(true)
	bad.OOVTokens = bad.Tokens // 100% OOV vs learned 0%
	v, ok := p.Score(bad)
	if !ok || v.Status != Quarantined {
		t.Fatalf("OOV spike scored %v %s, want quarantined", ok, v.Status)
	}
	if v.Worst != "oov_rate" {
		t.Fatalf("worst invariant %s, want oov_rate", v.Worst)
	}
}

func TestTimestampJumpQuarantined(t *testing.T) {
	p := NewProfile(Params{})
	warm(p, 10)
	bad := steadyObs(true)
	bad.TimeStep = 1000
	v, _ := p.Score(bad)
	if v.Status != Quarantined || !contains(v.Violated, "time_step") {
		t.Fatalf("time jump scored %s (violated %v), want quarantined time_step", v.Status, v.Violated)
	}
	// A regression (negative step) is just as far from the envelope.
	bad.TimeStep = -500
	if v, _ := p.Score(bad); v.Status != Quarantined || !contains(v.Violated, "time_step") {
		t.Fatalf("time regression scored %s (violated %v), want quarantined time_step", v.Status, v.Violated)
	}
}

func TestDuplicateFloodQuarantined(t *testing.T) {
	p := NewProfile(Params{})
	warm(p, 10)
	bad := steadyObs(true)
	bad.Dups = 19
	bad.MaxUserTweets = 20
	v, _ := p.Score(bad)
	if v.Status != Quarantined || !contains(v.Violated, "dup_rate") {
		t.Fatalf("dup flood scored %s (violated %v), want quarantined dup_rate", v.Status, v.Violated)
	}
}

func TestFlagBetweenThresholds(t *testing.T) {
	// With jittered token counts the learned std is real; a batch ~5
	// sigma out lands between FlagZ=4 and QuarantineZ=8.
	p := NewProfile(Params{})
	for i := 0; i < 16; i++ {
		o := steadyObs(i > 0)
		o.Tokens = 60 + (i % 5) // mean ~62, floored std ~6.2 (10% of mean)
		p.Observe(o, nil)
	}
	o := steadyObs(true)
	o.Tokens = 100
	v, _ := p.Score(o)
	if v.Status != Flagged || !contains(v.Violated, "token_rate") {
		t.Fatalf("scored %s z=%.2f (violated %v), want flagged token_rate", v.Status, v.MaxZ, v.Violated)
	}
}

func TestObserveCountersAndDrift(t *testing.T) {
	p := NewProfile(Params{})
	warm(p, 8)
	v, _ := p.Score(steadyObs(true))
	p.Observe(steadyObs(true), &v)
	bad := steadyObs(true)
	bad.Dups = 19
	vb, _ := p.Score(bad)
	if vb.Status != Quarantined {
		t.Fatalf("expected quarantine verdict, got %s", vb.Status)
	}
	p.Observe(bad, &vb) // flag-mode semantics: applied anyway
	r := p.Report()
	if r.Observed != 10 || r.Scored != 2 || r.Quarantined != 1 || r.Flagged != 0 {
		t.Fatalf("report counters observed=%d scored=%d flagged=%d quarantined=%d",
			r.Observed, r.Scored, r.Flagged, r.Quarantined)
	}
	if r.Drift <= 0 || r.Trend != "rising" {
		t.Fatalf("after a quarantined batch drift=%g trend=%s, want positive and rising", r.Drift, r.Trend)
	}
}

func TestScoreDoesNotMutate(t *testing.T) {
	p := NewProfile(Params{})
	warm(p, 10)
	before := p.State()
	bad := steadyObs(true)
	bad.OOVTokens = bad.Tokens
	for i := 0; i < 3; i++ {
		p.Score(bad)
	}
	if p.State() != before {
		t.Fatal("Score mutated the profile")
	}
}

func TestEmptyBatchIgnored(t *testing.T) {
	p := NewProfile(Params{})
	warm(p, 10)
	before := p.State()
	p.Observe(Observation{}, nil)
	if _, ok := p.Score(Observation{}); ok {
		t.Fatal("empty batch produced a verdict")
	}
	if p.State() != before {
		t.Fatal("empty batch mutated the profile")
	}
}

func TestParamsValidate(t *testing.T) {
	for _, bad := range []Params{
		{MinSamples: -1},
		{FlagZ: -2},
		{QuarantineZ: math.Inf(1)},
		{FlagZ: 9, QuarantineZ: 3},
		{FlagZ: math.NaN()},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("params %+v validated", bad)
		}
	}
	if err := (Params{}).Validate(); err != nil {
		t.Fatalf("zero params (defaults): %v", err)
	}
	if err := (Params{MinSamples: 3, FlagZ: 2, QuarantineZ: 5}).Validate(); err != nil {
		t.Fatalf("custom params: %v", err)
	}
}

func TestIsZero(t *testing.T) {
	p := NewProfile(Params{})
	if !p.State().IsZero() {
		t.Fatal("fresh default profile not zero")
	}
	if NewProfile(Params{MinSamples: 3}).State().IsZero() {
		t.Fatal("custom params counted as zero")
	}
	p.Observe(steadyObs(false), nil)
	if p.State().IsZero() {
		t.Fatal("observed profile counted as zero")
	}
}

func contains(ss []string, want string) bool {
	for _, s := range ss {
		if s == want {
			return true
		}
	}
	return false
}
