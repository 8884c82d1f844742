package core

import (
	"math"
	"testing"

	"triclust/internal/mat"
)

func TestCountingSourceSkipMatchesReplay(t *testing.T) {
	a := newCountingSource(7)
	want := make([]uint64, 100)
	for i := range want {
		want[i] = a.Uint64()
	}
	for _, pos := range []uint64{0, 1, 40, 99} {
		b := newCountingSource(7)
		b.skip(pos)
		for i := pos; i < uint64(len(want)); i++ {
			if got := b.Uint64(); got != want[i] {
				t.Fatalf("skip(%d): draw %d = %d, replay gives %d", pos, i, got, want[i])
			}
		}
		if b.n != uint64(len(want)) {
			t.Fatalf("skip(%d): draw count %d, want %d", pos, b.n, len(want))
		}
	}
}

func TestCountingSourceSeedsDiverge(t *testing.T) {
	a, b := newCountingSource(1), newCountingSource(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d/64 identical draws across different seeds", same)
	}
}

// TestCountingSourceSkipConstantTime seeks to the largest possible draw
// position. A snapshot's RandDraws is attacker-controlled (the checksum is
// computable), so seeking must be O(1) — a linear replay would pin a CPU
// effectively forever on restore.
func TestCountingSourceSkipConstantTime(t *testing.T) {
	s := newCountingSource(3)
	s.skip(math.MaxUint64)
	if s.n != math.MaxUint64 {
		t.Fatalf("position %d after skip", s.n)
	}
	_ = s.Uint64() // position wraps; drawing must still work
}

func TestNewOnlineFromStateHugeRandDraws(t *testing.T) {
	o := NewOnline(DefaultOnlineConfig())
	st := o.ExportState()
	st.RandDraws = math.MaxUint64
	if _, err := NewOnlineFromState(DefaultOnlineConfig(), st); err != nil {
		t.Fatalf("restore with max draw position: %v", err)
	}
}

// steppedOnline runs two snapshots through a solver so its exported state
// carries warm-start cores, feature history and user history. Window is 3
// so that both snapshots (and two rows of a returning user) are retained.
func steppedOnline(t *testing.T) *Online {
	t.Helper()
	_, snaps, lex := onlineFixture(t, 3)
	cfg := DefaultOnlineConfig()
	cfg.MaxIter = 5
	cfg.Window = 3
	o := NewOnline(cfg)
	steps := 0
	for ti, s := range snaps {
		if s.Graph.Xp.Rows() == 0 {
			continue
		}
		if _, err := o.Step(ti, snapshotProblem(s, lex, cfg.K), s.Active); err != nil {
			t.Fatalf("Step %d: %v", ti, err)
		}
		if steps++; steps == 2 {
			break
		}
	}
	if steps < 2 || o.HistoryLen() < 2 {
		t.Fatalf("fixture took %d steps and retains %d feature snapshots, want 2 and 2", steps, o.HistoryLen())
	}
	return o
}

func TestNewOnlineFromStateRejectsIncoherentState(t *testing.T) {
	o := steppedOnline(t)
	cfg := o.Config()
	k := cfg.K
	if _, err := NewOnlineFromState(cfg, o.ExportState()); err != nil {
		t.Fatalf("unmutated state must restore: %v", err)
	}
	// returning finds the second row of a user who holds two.
	returning := func(st *OnlineState) int {
		for i := 1; i < len(st.UserIDs); i++ {
			if st.UserIDs[i] == st.UserIDs[i-1] {
				return i
			}
		}
		t.Fatal("no user with two history rows in state")
		return -1
	}
	cases := []struct {
		name   string
		mutate func(st *OnlineState)
	}{
		{"core dims", func(st *OnlineState) {
			st.LastHp = mat.NewDense(k+1, k)
			st.LastHu = mat.NewDense(k+1, k)
		}},
		{"one core missing", func(st *OnlineState) { st.LastHu = nil }},
		{"history cols", func(st *OnlineState) {
			st.SfHist[0].Sf = mat.NewDense(st.SfHist[0].Sf.Rows(), k+1)
		}},
		{"history rows mismatch", func(st *OnlineState) {
			last := len(st.SfHist) - 1
			st.SfHist[last].Sf = mat.NewDense(st.SfHist[0].Sf.Rows()+1, k)
			st.SfHist[last].Seen = make([]bool, st.SfHist[0].Sf.Rows()+1)
		}},
		{"seen length", func(st *OnlineState) {
			st.SfHist[0].Seen = st.SfHist[0].Seen[:len(st.SfHist[0].Seen)-1]
		}},
		{"user row length", func(st *OnlineState) {
			st.UserRows = mat.NewDense(len(st.UserIDs), 1)
		}},
		{"user times length", func(st *OnlineState) {
			st.UserTimes = st.UserTimes[:len(st.UserTimes)-1]
		}},
		{"user id negative", func(st *OnlineState) { st.UserIDs[0] = -1 }},
		{"user ids unsorted", func(st *OnlineState) {
			last := len(st.UserIDs) - 1
			st.UserIDs[0], st.UserIDs[last] = st.UserIDs[last], st.UserIDs[0]
		}},
		{"user times not increasing", func(st *OnlineState) {
			i := returning(st)
			st.UserTimes[i-1], st.UserTimes[i] = st.UserTimes[i], st.UserTimes[i-1]
		}},
		{"user row after the last step", func(st *OnlineState) {
			st.UserTimes[len(st.UserTimes)-1] = st.SfHist[len(st.SfHist)-1].Time + 1
		}},
		{"user history without feature history", func(st *OnlineState) { st.SfHist = nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := o.ExportState()
			tc.mutate(st)
			_, err := NewOnlineFromState(cfg, st)
			if err == nil {
				t.Fatal("incoherent state restored without error")
			}
			t.Log(err)
		})
	}
}
