package conform

import (
	"errors"
	"fmt"
	"math"
)

// ProfileState is a profile's whole state as a value: what a snapshot
// stores. (*Profile).State exports it and NewProfileFromState rebuilds a
// profile from it, so a copy of the value is a copy of the profile. The
// snapshot codec (internal/codec) owns its bytes.
type ProfileState struct {
	// Params are the thresholds, with the defaults filled in.
	Params Params
	// Observed counts batches folded in; Scored / Flagged / Quarantined
	// count verdicts of batches that were applied (a batch rejected in
	// enforce mode leaves no trace here, so a rejected request never
	// mutates durable state).
	Observed, Scored, Flagged, Quarantined uint64
	// Drift is the EWMA of the scored batches' worst |z|; PrevDrift is
	// its value before the most recent update (the trend).
	Drift, PrevDrift float64
	// Metrics holds one accumulator per invariant, in invariant order.
	Metrics [numMetrics]MetricState
}

// MetricState is one invariant's online accumulator (Welford): N samples
// with running Mean, sum of squared deviations M2, and the observed range
// [Min, Max].
type MetricState struct {
	N                  uint64
	Mean, M2, Min, Max float64
}

// maxCounter bounds the batch counters a valid state holds; real streams
// sit far below it, and the bound keeps hostile counter pairs from
// overflowing the consistency arithmetic in Validate.
const maxCounter = 1 << 62

// ErrProfile marks a profile state that fails validation.
var ErrProfile = errors.New("conform: invalid profile")

// State returns a copy of the profile's state.
func (p *Profile) State() ProfileState { return p.s }

// NewProfileFromState rebuilds a profile from an exported state, which
// must pass Validate: a snapshot's checksum vouches for its bytes, not
// for their meaning.
func NewProfileFromState(s ProfileState) (*Profile, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &Profile{s: s}, nil
}

// IsZero reports whether the state carries no information beyond the
// defaults — nothing observed, default thresholds. Snapshots omit the
// profile section for a zero state, so snapshots of fresh topics stay
// byte-identical to builds before the conformance gate.
func (s ProfileState) IsZero() bool {
	if s.Observed != 0 || s.Scored != 0 || s.Drift != 0 || s.PrevDrift != 0 {
		return false
	}
	return s.Params == DefaultParams()
}

// Validate cross-checks the state: thresholds the scorer can run with,
// finite accumulators with consistent shapes, and counters that respect
// their arithmetic relations. A decoded snapshot's state passes through
// here, so a valid-checksum but crafted snapshot is rejected at restore
// instead of producing NaN scores or impossible censuses later.
func (s ProfileState) Validate() error {
	if s.Params != s.Params.withDefaults() {
		return fmt.Errorf("%w: non-canonical params (zero-valued field)", ErrProfile)
	}
	if err := s.Params.Validate(); err != nil {
		return err
	}
	if s.Observed > maxCounter || s.Flagged > s.Scored || s.Quarantined > s.Scored ||
		s.Flagged+s.Quarantined > s.Scored || s.Scored > s.Observed {
		return fmt.Errorf("%w: counters out of order (observed=%d scored=%d flagged=%d quarantined=%d)",
			ErrProfile, s.Observed, s.Scored, s.Flagged, s.Quarantined)
	}
	if !finite(s.Drift) || !finite(s.PrevDrift) || s.Drift < 0 || s.PrevDrift < 0 {
		return fmt.Errorf("%w: drift not a non-negative finite number", ErrProfile)
	}
	for i, m := range s.Metrics {
		if m.N > s.Observed {
			return fmt.Errorf("%w: invariant %s has %d samples over %d observed batches",
				ErrProfile, metricNames[i], m.N, s.Observed)
		}
		if m.N == 0 {
			// Canonical zero: an unobserved invariant carries no stats, so
			// equal profiles stay byte-equal.
			if m.Mean != 0 || m.M2 != 0 || m.Min != 0 || m.Max != 0 {
				return fmt.Errorf("%w: invariant %s has stats but no samples", ErrProfile, metricNames[i])
			}
			continue
		}
		if !finite(m.Mean) || !finite(m.M2) || !finite(m.Min) || !finite(m.Max) {
			return fmt.Errorf("%w: invariant %s has non-finite stats", ErrProfile, metricNames[i])
		}
		if m.M2 < 0 {
			return fmt.Errorf("%w: invariant %s has negative variance accumulator", ErrProfile, metricNames[i])
		}
		if m.Min > m.Max {
			return fmt.Errorf("%w: invariant %s has min %g > max %g", ErrProfile, metricNames[i], m.Min, m.Max)
		}
	}
	return nil
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }
