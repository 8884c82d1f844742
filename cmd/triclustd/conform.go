package main

import (
	"triclust"
)

// Conformance wiring of the daemon: the server-wide -conform-mode
// setting, the JSON shapes of verdicts and the healthz census, and the
// per-topic record of the most recent violation.
//
// The mode is a runtime policy, not topic state: every topic this shard
// serves — created, restored, or promoted from a replica — is stamped
// with the server's mode, while the profile it scores against lives
// inside the topic's durable state and accumulates identically in every
// mode.

// verdictJSON is the wire shape of a conformance verdict, embedded in
// flag-mode batch responses and in enforce-mode rejection bodies.
type verdictJSON struct {
	Status   string      `json:"status"`
	Worst    string      `json:"worst,omitempty"`
	MaxZ     float64     `json:"max_z"`
	Violated []string    `json:"violated,omitempty"`
	Scores   []scoreJSON `json:"scores,omitempty"`
}

// scoreJSON is one invariant's z-score within a verdict.
type scoreJSON struct {
	Invariant string  `json:"invariant"`
	Value     float64 `json:"value"`
	Mean      float64 `json:"mean"`
	Std       float64 `json:"std"`
	Z         float64 `json:"z"`
}

func verdictOf(v *triclust.ConformanceVerdict) *verdictJSON {
	if v == nil {
		return nil
	}
	out := &verdictJSON{
		Status:   string(v.Status),
		Worst:    v.Worst,
		MaxZ:     v.MaxZ,
		Violated: v.Violated,
	}
	for _, sc := range v.Scores {
		out.Scores = append(out.Scores, scoreJSON{
			Invariant: sc.Invariant,
			Value:     sc.Value,
			Mean:      sc.Mean,
			Std:       sc.Std,
			Z:         sc.Z,
		})
	}
	return out
}

// violationJSON records a topic's most recent flagged or quarantined
// batch for the healthz census (scores elided — healthz is a summary,
// the full verdict went to the client that sent the batch).
type violationJSON struct {
	Time     int      `json:"time"`
	Status   string   `json:"status"`
	Worst    string   `json:"worst"`
	MaxZ     float64  `json:"max_z"`
	Violated []string `json:"violated,omitempty"`
}

// noteViolation publishes a batch's non-conforming verdict as the
// topic's most recent violation. Atomic because healthz reads it
// without the topic lock.
func (tp *topic) noteViolation(ts int, v *triclust.ConformanceVerdict) {
	if v == nil || v.Status == triclust.Conforming {
		return
	}
	tp.lastViol.Store(&violationJSON{
		Time:     ts,
		Status:   string(v.Status),
		Worst:    v.Worst,
		MaxZ:     v.MaxZ,
		Violated: v.Violated,
	})
}

// conformanceHealth is the healthz conformance section: the shard's
// mode, how many batches enforce mode has rejected since startup, and
// the per-topic drift census.
type conformanceHealth struct {
	Mode string `json:"mode"`
	// RejectedBatches counts enforce-mode rejections. Rejected batches
	// leave no durable trace (retrying after fixing the feed is safe),
	// so this runtime counter is the only place they show up.
	RejectedBatches uint64             `json:"rejected_batches"`
	Topics          []topicConformance `json:"topics"`
}

// topicConformance is one topic's row in the census: profile readiness,
// the verdict counters of applied batches, the drift trend, and the most
// recent violation seen on this shard.
type topicConformance struct {
	Name          string         `json:"name"`
	Ready         bool           `json:"ready"`
	Observed      uint64         `json:"observed"`
	Scored        uint64         `json:"scored"`
	Flagged       uint64         `json:"flagged"`
	Quarantined   uint64         `json:"quarantined"`
	Drift         float64        `json:"drift"`
	Trend         string         `json:"trend"`
	LastViolation *violationJSON `json:"last_violation,omitempty"`
}

// conformanceHealth builds the healthz section from the served topics'
// published read views (lock-free, like the rest of the read plane).
func (s *server) conformanceHealth(served []*topic) *conformanceHealth {
	ch := &conformanceHealth{
		Mode:            s.conform.String(),
		RejectedBatches: s.conformRejected.Load(),
		Topics:          []topicConformance{},
	}
	for _, tp := range served {
		row := topicConformance{Name: tp.name, Trend: "flat", LastViolation: tp.lastViol.Load()}
		if rep := tp.eng.ConformanceReport(); rep != nil {
			row.Ready = rep.Ready
			row.Observed = rep.Observed
			row.Scored = rep.Scored
			row.Flagged = rep.Flagged
			row.Quarantined = rep.Quarantined
			row.Drift = rep.Drift
			row.Trend = rep.Trend
		}
		ch.Topics = append(ch.Topics, row)
	}
	return ch
}
