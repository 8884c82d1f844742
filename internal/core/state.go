package core

import (
	"fmt"

	"triclust/internal/mat"
)

// countingSource is a seekable, draw-counting random source (SplitMix64),
// which makes the solver's random stream replayable: a restored solver
// re-seeds from Config.Seed and seeks to the recorded draw position, after
// which it emits exactly the values the original would have. Counting raw
// source draws (rather than high-level calls) is what makes this exact:
// every Float64/Intn the solver performs bottoms out in one Int63/Uint64
// draw here, regardless of which convenience method drew it.
//
// SplitMix64 is used instead of the standard library's source because its
// state after n draws is a closed form (init + n·γ), so seeking is O(1)
// for any position. Replaying draw-by-draw would let a crafted snapshot
// with RandDraws near 2⁶⁴ pin a CPU effectively forever during restore.
type countingSource struct {
	init  uint64 // state right after seeding (position zero)
	state uint64
	n     uint64
}

// splitmixGamma is SplitMix64's Weyl-sequence increment (the odd constant
// ⌊2⁶⁴/φ⌋); state advances by it on every draw, wrapping mod 2⁶⁴.
const splitmixGamma = 0x9E3779B97F4A7C15

// splitmix64 is the SplitMix64 output function (Steele, Lea & Flood 2014):
// a bijective scramble of the Weyl state.
func splitmix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func newCountingSource(seed int64) *countingSource {
	s := &countingSource{}
	s.Seed(seed)
	return s
}

func (s *countingSource) Int63() int64 {
	return int64(s.Uint64() >> 1)
}

func (s *countingSource) Uint64() uint64 {
	s.state += splitmixGamma
	s.n++
	return splitmix64(s.state)
}

func (s *countingSource) Seed(seed int64) {
	// Scramble the raw seed so nearby seeds (0, 1, 2, …) do not start in
	// states one Weyl step apart, which would make their streams overlap
	// with an offset of one draw.
	s.init = splitmix64(uint64(seed) * splitmixGamma)
	s.state = s.init
	s.n = 0
}

// skip seeks the source to absolute draw position n in constant time.
func (s *countingSource) skip(n uint64) {
	s.state = s.init + n*splitmixGamma
	s.n = n
}

// SfSnapshotState is the serializable form of one retained feature
// snapshot (Sf(t−i) with its evidence mask).
type SfSnapshotState struct {
	Time int
	Sf   *mat.Dense
	Seen []bool
}

// OnlineState is the complete mutable state of an Online solver: the
// temporal history that feeds Sfw/Suw, the warm-start association cores,
// and the position in the seeded random stream. Together with the
// solver's OnlineConfig it determines every future Step bit-for-bit, at
// any kernel parallelism width, which is what makes durable
// snapshot/restore of a stream possible.
//
// An exported state is canonical: it holds exactly the history a step
// after the last one can read (see OnlineConfig.Window), measured against
// the last step's time for every user. It is therefore a function of the
// stream alone — two solvers that took the same steps export equal states
// whatever their snapshot/restore history.
type OnlineState struct {
	// RandDraws is the number of raw draws consumed from the seeded
	// source so far; restore replays the stream to this position.
	RandDraws uint64
	// LastHp / LastHu warm-start the association cores (nil before the
	// first step).
	LastHp, LastHu *mat.Dense
	// SfHist holds the retained feature snapshots, oldest first.
	SfHist []SfSnapshotState
	// UserIDs, UserTimes and the rows of UserRows are the retained Su
	// history in flat parallel form: entry i is the k-wide row
	// UserRows.Row(i) that user UserIDs[i] was given at time UserTimes[i],
	// sorted by id, then time. All three are nil when no user has history.
	UserIDs   []int
	UserTimes []int
	UserRows  *mat.Dense
}

// ExportState deep-copies the solver's mutable state in its canonical
// form. The solver remains usable; the returned state is independent of
// later Steps.
func (o *Online) ExportState() *OnlineState {
	st := &OnlineState{RandDraws: o.src.n}
	if o.lastHp != nil {
		st.LastHp = o.lastHp.Clone()
		st.LastHu = o.lastHu.Clone()
	}
	st.SfHist = make([]SfSnapshotState, len(o.sfHist))
	for i, s := range o.sfHist {
		st.SfHist[i] = SfSnapshotState{
			Time: s.time,
			Sf:   s.sf.Clone(),
			Seen: append([]bool(nil), s.seen...),
		}
	}
	h := &o.users
	if h.known == 0 {
		return st
	}
	// A user who has not been active lately may still hold rows that were
	// readable when they were recorded and no longer are: push drops them
	// the next time the user is active, and they are never exported. At
	// the default window that leaves one row per known user.
	last, _ := o.LastTime()
	minTime := o.cfg.horizon(last)
	ids, times := make([]int, 0, h.known), make([]int, 0, h.known)
	rows := make([]float64, 0, h.known*h.k)
	for u, n := range h.n {
		for d := 0; d < n; d++ {
			if l := &h.layers[d]; d == n-1 || l.times[u] >= minTime {
				ids = append(ids, u)
				times = append(times, l.times[u])
				rows = append(rows, l.row(u, h.k)...)
			}
		}
	}
	st.UserIDs, st.UserTimes, st.UserRows = ids, times, mat.NewDenseData(len(ids), h.k, rows)
	return st
}

// NewOnlineFromState rebuilds a solver that continues exactly where the
// exported one stopped: same configuration, same history, and the seeded
// random stream fast-forwarded to the recorded position. The state is
// deep-copied. History no later step can read is dropped on the way in (a
// state written under a wider retention rule restores to the canonical
// one). The user ids size the solver's history index: a caller restoring
// outside input bounds them by its user universe first.
func NewOnlineFromState(cfg OnlineConfig, st *OnlineState) (*Online, error) {
	if st == nil {
		return nil, fmt.Errorf("core: nil online state")
	}
	if (st.LastHp == nil) != (st.LastHu == nil) {
		return nil, fmt.Errorf("core: inconsistent warm-start cores in state")
	}
	o := NewOnline(cfg)
	k := o.cfg.K
	// A snapshot's checksum only proves the bytes arrived intact, not that
	// the state is coherent; every shape the solver will later feed to a
	// kernel is validated here so a crafted snapshot fails the restore, not
	// a panic inside Step.
	if st.LastHp != nil {
		if !st.LastHp.Dims(k, k) || !st.LastHu.Dims(k, k) {
			return nil, fmt.Errorf("core: warm-start cores are %dx%d / %dx%d, want %dx%d",
				st.LastHp.Rows(), st.LastHp.Cols(), st.LastHu.Rows(), st.LastHu.Cols(), k, k)
		}
	}
	o.src.skip(st.RandDraws)
	if st.LastHp != nil {
		o.lastHp = st.LastHp.Clone()
		o.lastHu = st.LastHu.Clone()
	}
	// History no later step can read is not loaded.
	newest, minTime := len(st.SfHist)-1, 0
	if newest >= 0 {
		minTime = o.cfg.horizon(st.SfHist[newest].Time)
	}
	for i, s := range st.SfHist {
		if s.Sf == nil {
			return nil, fmt.Errorf("core: feature snapshot %d has no matrix", i)
		}
		if s.Sf.Cols() != k {
			return nil, fmt.Errorf("core: feature snapshot %d has %d columns, want k=%d", i, s.Sf.Cols(), k)
		}
		if i > 0 && st.SfHist[0].Sf.Rows() != s.Sf.Rows() {
			return nil, fmt.Errorf("core: feature snapshot %d has %d rows, snapshot 0 has %d",
				i, s.Sf.Rows(), st.SfHist[0].Sf.Rows())
		}
		if len(s.Seen) != s.Sf.Rows() {
			return nil, fmt.Errorf("core: feature snapshot %d has %d seen flags for %d rows",
				i, len(s.Seen), s.Sf.Rows())
		}
		if i > 0 && st.SfHist[i-1].Time >= s.Time {
			return nil, fmt.Errorf("core: feature history times not increasing at %d", i)
		}
		if s.Time >= minTime || i == newest {
			o.sfHist = append(o.sfHist, sfSnapshot{
				time: s.Time,
				sf:   s.Sf.Clone(),
				seen: append([]bool(nil), s.Seen...),
			})
		}
	}
	if err := st.validateUserHistory(k); err != nil {
		return nil, err
	}
	if n := len(st.UserIDs); n > 0 {
		o.users.grow(st.UserIDs[n-1] + 1) // ids are sorted: one allocation, not a doubling series
	}
	for i, g := range st.UserIDs {
		o.users.push(g, st.UserTimes[i], minTime, st.UserRows.Row(i))
	}
	return o, nil
}

// validateUserHistory checks the flat user history: parallel lengths,
// k-wide rows, ids non-negative and sorted, each user's times strictly
// increasing and none later than the newest feature snapshot (the last
// step recorded both).
func (st *OnlineState) validateUserHistory(k int) error {
	n := len(st.UserIDs)
	if len(st.UserTimes) != n {
		return fmt.Errorf("core: user history has %d ids for %d times", n, len(st.UserTimes))
	}
	if n == 0 {
		return nil
	}
	if st.UserRows == nil || !st.UserRows.Dims(n, k) {
		return fmt.Errorf("core: user history rows do not form a %dx%d matrix", n, k)
	}
	if len(st.SfHist) == 0 {
		return fmt.Errorf("core: user history without a feature snapshot")
	}
	last := st.SfHist[len(st.SfHist)-1].Time
	for i, g := range st.UserIDs {
		if g < 0 {
			return fmt.Errorf("core: negative user id %d in history", g)
		}
		if st.UserTimes[i] > last {
			return fmt.Errorf("core: user %d has a row at time %d, after the last step at %d",
				g, st.UserTimes[i], last)
		}
		if i == 0 {
			continue
		}
		if prev := st.UserIDs[i-1]; g < prev {
			return fmt.Errorf("core: user history ids not sorted at entry %d (%d after %d)", i, g, prev)
		} else if g == prev && st.UserTimes[i] <= st.UserTimes[i-1] {
			return fmt.Errorf("core: user %d history times not increasing (%d after %d)",
				g, st.UserTimes[i], st.UserTimes[i-1])
		}
	}
	return nil
}
