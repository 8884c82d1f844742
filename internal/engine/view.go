package engine

import (
	"triclust/internal/conform"
	"triclust/internal/core"
	"triclust/internal/mat"
)

// ViewState is the convergence indicator of a published View: how much
// the served estimates should be trusted while batches are still
// streaming in (warm-up, backfill, journal or replica replay).
type ViewState string

const (
	// ViewWarming: the topic has not yet seen enough batches for the
	// temporal window to fill (or the vocabulary is not frozen); estimates
	// are first impressions.
	ViewWarming ViewState = "warming"
	// ViewConverging: estimates are still moving between batches by more
	// than SteadyDelta; an answer is served, with its delta, instead of
	// making the client wait for the stream to settle.
	ViewConverging ViewState = "converging"
	// ViewSteady: the last batch moved the published estimates by at most
	// SteadyDelta per matrix entry on average.
	ViewSteady ViewState = "steady"
)

// SteadyDelta is the mean per-entry estimate movement (between the two
// most recent views, over users known to both) at or below which a view
// reports ViewSteady.
const SteadyDelta = 0.005

// View is an immutable snapshot of everything a topic's read plane
// serves: per-user sentiment estimates, feature sentiments, counters,
// the stream fingerprint, the ownership epoch and a convergence
// indicator. A Session materializes one after every committed batch; the
// Topic publishes it with a single atomic pointer swap, so readers load
// a fully consistent view without taking any lock (RCU: readers never
// block writers, writers never wait for readers).
//
// A View and everything it references is frozen at publication. Readers
// must treat every field — slices included — as read-only.
type View struct {
	// Batches / Skips are the session's step counters at publication.
	Batches, Skips int
	// RandDraws is the solver's position in its replayable random stream;
	// (Batches, RandDraws) is the stream fingerprint. Two topics that
	// processed the same batches publish views with identical
	// fingerprints and identical estimates.
	RandDraws uint64
	// Epoch is the topic's ownership epoch (sharded deployments).
	Epoch uint64
	// LastTime / HasTime report the most recent non-empty batch time.
	LastTime int
	HasTime  bool
	// Frozen / VocabSize describe the vocabulary at publication.
	Frozen    bool
	VocabSize int
	// NumUsers is the fixed user-universe size; Est and Known have this
	// length. Known[u] reports whether user u has recorded history;
	// KnownUsers counts the true entries. Est[u] is the labeled estimate
	// (meaningful only where Known[u]).
	NumUsers   int
	KnownUsers int
	Est        []Sentiment
	Known      []bool
	// Rows is the flat NumUsers×K matrix of raw estimate rows backing
	// Est, kept so the next view can compute its Delta against this one.
	Rows []float64
	K    int
	// Features labels the per-word rows of the most recent solve (nil
	// before the first one), in vocabulary feature-index order.
	Features []Sentiment
	// Factors are Sf, Hp and Hu of that solve (Sp and Su nil; nil before
	// the first solve): what fold-in prediction and a snapshot read. The
	// publisher sets it; BuildView leaves it nil.
	Factors *core.Factors
	// State / Delta are the convergence indicator: Delta is the mean
	// absolute per-entry change of the user estimates versus the previous
	// view (1 when there is no previous view to compare against), State
	// classifies it (see ViewState).
	State ViewState
	Delta float64
	// Conform summarizes the stream-conformance profile at publication
	// (learned invariants, verdict counters, drift trend).
	Conform *conform.Report
}

// UserEstimate returns the view's estimate for a user, or ok = false if
// the user had no recorded history when the view was published.
func (v *View) UserEstimate(user int) (Sentiment, bool) {
	if user < 0 || user >= v.NumUsers || !v.Known[user] {
		return Sentiment{}, false
	}
	return v.Est[user], true
}

// WithSkip returns a copy of v with one more skipped batch. A skipped
// (empty) batch changes no solver state, so estimates, fingerprint and
// convergence are carried over unchanged.
func (v *View) WithSkip() *View {
	c := *v
	c.Skips++
	return &c
}

// WithEpoch returns a copy of v owned at epoch e (hand-off and promotion
// republish the read plane through this without re-materializing it).
func (v *View) WithEpoch(e uint64) *View {
	c := *v
	c.Epoch = e
	return &c
}

// BuildView materializes the session's current results as an immutable
// View: the per-user estimates labeled exactly as UserEstimate labels
// them, the feature sentiments of sf (the most recent solve's Sf; nil
// before the first solve), counters and the stream fingerprint. prev is
// the previously published view (nil for the first), used to compute the
// convergence delta; epoch is stamped in verbatim.
//
// The cost is O(knownUsers·k + vocab) per call — paid once per committed
// batch on the write path, so the read path pays nothing.
func (s *Session) BuildView(sf *mat.Dense, prev *View, epoch uint64) *View {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := s.online.Config().K
	n := len(s.users)
	v := &View{
		Batches:   s.batches,
		Skips:     s.skips,
		RandDraws: s.online.RandDraws(),
		Epoch:     epoch,
		NumUsers:  n,
		K:         k,
		Est:       make([]Sentiment, n),
		Known:     make([]bool, n),
		Rows:      make([]float64, n*k),
	}
	if t, ok := s.online.LastTime(); ok {
		v.LastTime, v.HasTime = t, true
	}
	if vb := s.model.Vocabulary(); vb != nil {
		v.Frozen, v.VocabSize = true, vb.Len()
	}
	s.online.VisitUserEstimates(func(u int, row []float64) {
		if u < 0 || u >= n || len(row) != k {
			return
		}
		v.Known[u] = true
		v.KnownUsers++
		copy(v.Rows[u*k:(u+1)*k], row)
		v.Est[u] = LabelRow(row)
	})
	if sf != nil {
		v.Features = Label(sf)
	}
	v.Conform = s.prof.Report()
	v.Delta = viewDelta(v, prev)
	v.State = viewState(v, s.online.Config().Window)
	return v
}

// viewDelta is the mean absolute per-entry change of the user estimate
// rows between v and prev, over users known to both. It is 1 (maximal)
// when there is nothing to compare against — no previous view, a
// different universe or class count, or no overlapping users.
func viewDelta(v, prev *View) float64 {
	if prev == nil || prev.K != v.K || prev.NumUsers != v.NumUsers {
		return 1
	}
	sum, cnt := 0.0, 0
	for u := 0; u < v.NumUsers; u++ {
		if !v.Known[u] || !prev.Known[u] {
			continue
		}
		for j := u * v.K; j < (u+1)*v.K; j++ {
			d := v.Rows[j] - prev.Rows[j]
			if d < 0 {
				d = -d
			}
			sum += d
			cnt++
		}
	}
	if cnt == 0 {
		return 1
	}
	return sum / float64(cnt)
}

// viewState classifies a view's convergence: warming until the
// vocabulary froze and the temporal window filled, then steady once the
// last batch moved the estimates by at most SteadyDelta, converging in
// between.
func viewState(v *View, window int) ViewState {
	if window < 1 {
		window = 1
	}
	if !v.Frozen || v.Batches < window {
		return ViewWarming
	}
	if v.Delta <= SteadyDelta {
		return ViewSteady
	}
	return ViewConverging
}
