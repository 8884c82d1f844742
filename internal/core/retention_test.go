package core

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"triclust/internal/mat"
	"triclust/internal/sparse"
)

// fullHistory is the reference the retention rule is held against: every
// feature snapshot and every user row a stream ever recorded, kept forever.
type fullHistory struct {
	sf   []sfSnapshot
	rows []archivedRow // sorted by user id, then time
}

type archivedRow struct {
	user, time int
	row        []float64
}

// loadInto overwrites a solver's history with everything the archive
// holds, so its next Step aggregates Sfw/Suw over the whole past by the
// age rule alone — what retention claims never to change.
func (a *fullHistory) loadInto(o *Online) {
	o.sfHist = o.sfHist[:0]
	for _, s := range a.sf {
		// Copies: record reuses the storage of what it drops.
		o.sfHist = append(o.sfHist, sfSnapshot{time: s.time, sf: s.sf.Clone(), seen: slices.Clone(s.seen)})
	}
	o.users = userRows{k: o.cfg.K}
	for _, r := range a.rows {
		o.users.push(r.user, r.time, math.MinInt, r.row) // nothing is older than MinInt
	}
}

// keep archives what the step at t just recorded in o.
func (a *fullHistory) keep(o *Online, t int, active []int) {
	s := o.sfHist[len(o.sfHist)-1]
	a.sf = append(a.sf, sfSnapshot{time: s.time, sf: s.sf.Clone(), seen: slices.Clone(s.seen)})
	for _, g := range active {
		a.rows = append(a.rows, archivedRow{user: g, time: t, row: slices.Clone(o.users.newest(g))})
	}
	slices.SortStableFunc(a.rows, func(x, y archivedRow) int {
		if x.user != y.user {
			return x.user - y.user
		}
		return x.time - y.time
	})
}

// wideState is the archive as an OnlineState: what a build with no
// retention rule at all would have snapshotted.
func (a *fullHistory) wideState(canonical *OnlineState, k int) *OnlineState {
	st := *canonical
	st.SfHist = nil
	for _, s := range a.sf {
		st.SfHist = append(st.SfHist, SfSnapshotState{Time: s.time, Sf: s.sf, Seen: s.seen})
	}
	st.UserIDs, st.UserTimes = nil, nil
	st.UserRows = mat.NewDense(len(a.rows), k)
	for i, r := range a.rows {
		st.UserIDs = append(st.UserIDs, r.user)
		st.UserTimes = append(st.UserTimes, r.time)
		copy(st.UserRows.Row(i), r.row)
	}
	return &st
}

// retentionStep is one snapshot of a generated stream.
type retentionStep struct {
	time   int
	active []int
	prob   *Problem
}

// retentionStream generates a stream that exercises every way an entry
// leaves the window: steady cadence, timestamp gaps larger than the
// window, a user (0) who appears once, stays away for more than w steps
// and returns, and a batch whose users are all new.
func retentionStream(rng *rand.Rand, window int) []retentionStep {
	const words, regulars = 6, 9
	sf0 := mat.NewDense(words, 3)
	for j := 0; j < words; j++ {
		copy(sf0.Row(j), []float64{0.1, 0.1, 0.1})
		sf0.Row(j)[j%3] = 0.8
	}
	var steps []retentionStep
	t := 0
	for i := 0; i < 16; i++ {
		switch {
		case i == 5 || i == 11:
			t += window + 2 // everything falls out of the window at once
		default:
			t += 1 + rng.Intn(2)
		}
		var active []int
		switch {
		case i == 0 || i == window+4:
			active = []int{0, 1 + rng.Intn(regulars), 1 + regulars}
		case i == 8:
			active = []int{20, 21, 22, 23} // all new
		default:
			for g := 1; g <= regulars; g++ {
				if rng.Intn(2) == 0 {
					active = append(active, g)
				}
			}
			if len(active) == 0 {
				active = []int{1}
			}
		}
		slices.Sort(active)
		active = slices.Compact(active)
		// One tweet per active user, so Xu = Xp and Xr is the identity.
		rows := make([][]float64, len(active))
		ident := make([][]float64, len(active))
		for r := range rows {
			rows[r] = make([]float64, words)
			for n := 0; n < 3; n++ {
				rows[r][rng.Intn(words)] += float64(1 + rng.Intn(3))
			}
			ident[r] = make([]float64, len(active))
			ident[r][r] = 1
		}
		xp := sparse.FromDenseRows(rows)
		steps = append(steps, retentionStep{
			time: t, active: active,
			prob: &Problem{Xp: xp, Xu: xp, Xr: sparse.FromDenseRows(ident), Sf0: sf0},
		})
	}
	return steps
}

// TestRetentionNeverChangesAResult: the solver forgets an entry only when
// no later step can read it, so a solver that forgets nothing — its
// history re-filled from a keep-everything archive before every step —
// produces bit-identical factors, sweep counts and random-stream
// positions at every step; so does a solver restored at every step from
// the canonical export, and one restored from the whole archive. Every
// exported entry satisfies the rule stated at OnlineConfig.Window.
func TestRetentionNeverChangesAResult(t *testing.T) {
	for _, window := range []int{1, 2, 3, 5} {
		cfg := DefaultOnlineConfig()
		cfg.Window = window
		cfg.MaxIter = 4
		cfg.Seed = int64(window)
		live, restored, ref := NewOnline(cfg), NewOnline(cfg), NewOnline(cfg)
		var archive fullHistory
		for i, s := range retentionStream(rand.New(rand.NewSource(int64(window))), window) {
			archive.loadInto(ref)
			want, err := ref.Step(s.time, s.prob, s.active)
			if err != nil {
				t.Fatalf("w=%d step %d: reference: %v", window, i, err)
			}
			archive.keep(ref, s.time, s.active)
			for _, o := range []*Online{live, restored} {
				got, err := o.Step(s.time, s.prob, s.active)
				if err != nil {
					t.Fatalf("w=%d step %d: %v", window, i, err)
				}
				if !reflect.DeepEqual(got.Factors, want.Factors) || got.Iterations != want.Iterations ||
					o.RandDraws() != ref.RandDraws() {
					t.Fatalf("w=%d step %d (t=%d): solver (restored: %v) parts from the keep-everything reference",
						window, i, s.time, o == restored)
				}
			}

			st := live.ExportState()
			requireWindowExact(t, st, cfg, s.time)
			if got := restored.ExportState(); !reflect.DeepEqual(got, st) {
				t.Fatalf("w=%d step %d: a solver restored at every step exports a different state", window, i)
			}
			for _, from := range []struct {
				name string
				st   *OnlineState
			}{{"canonical", st}, {"keep-everything", archive.wideState(st, cfg.K)}} {
				restored, err = NewOnlineFromState(cfg, from.st)
				if err != nil {
					t.Fatalf("w=%d step %d: restore from the %s state: %v", window, i, from.name, err)
				}
				if got := restored.ExportState(); !reflect.DeepEqual(got, st) {
					t.Fatalf("w=%d step %d: the %s state restores to a different export", window, i, from.name)
				}
			}
		}
	}
}

// requireWindowExact checks an exported state, entry by entry, against the
// retention rule: after a step at t an entry timed s is held iff
// s ≥ t−w+2, or it is the newest feature snapshot or its user's newest row.
func requireWindowExact(t *testing.T, st *OnlineState, cfg OnlineConfig, now int) {
	t.Helper()
	limit := max(1, cfg.Window-1)
	if n := len(st.SfHist); n == 0 || n > limit || st.SfHist[n-1].Time != now {
		t.Fatalf("w=%d t=%d: %d feature snapshots exported, want 1..%d ending at t", cfg.Window, now, n, limit)
	}
	for i, s := range st.SfHist {
		if s.Time < now-cfg.Window+2 && i != len(st.SfHist)-1 {
			t.Fatalf("w=%d t=%d: feature snapshot at %d exported, no later step reads it", cfg.Window, now, s.Time)
		}
	}
	for i, g := range st.UserIDs {
		newest := i+1 == len(st.UserIDs) || st.UserIDs[i+1] != g
		if st.UserTimes[i] < now-cfg.Window+2 && !newest {
			t.Fatalf("w=%d t=%d: user %d row at %d exported, no later step reads it", cfg.Window, now, g, st.UserTimes[i])
		}
		if j := i - limit; j >= 0 && st.UserIDs[j] == g {
			t.Fatalf("w=%d t=%d: user %d exports more than %d rows", cfg.Window, now, g, limit)
		}
	}
}
