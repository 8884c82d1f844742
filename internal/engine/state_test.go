package engine

import (
	"testing"

	"triclust/internal/core"
	"triclust/internal/mat"
)

// steppedSession runs two day-batches through a fresh session so its
// exported state carries a frozen vocabulary, counters and solver history.
func steppedSession(t *testing.T) *Session {
	t.Helper()
	d := testDataset(t, 2)
	m := NewModel(fastConfig())
	sess := m.NewSession(d.Corpus.Users)
	for day := 0; day < 2; day++ {
		if _, err := sess.Process(day, dayBatch(d, day)); err != nil {
			t.Fatalf("Process day %d: %v", day, err)
		}
	}
	if n := sess.BuildView(nil, nil, 0).Batches; n != 2 {
		t.Fatalf("fixture processed %d non-empty batches, want 2", n)
	}
	return sess
}

// validFactors builds last-solve factors with the shapes the state's
// vocabulary and class count demand.
func validFactors(st *State) *core.Factors {
	k := st.Config.K
	words := len(st.VocabWords)
	return &core.Factors{
		Sf: mat.NewDense(words, k),
		Hp: mat.NewDense(k, k),
		Hu: mat.NewDense(k, k),
	}
}

func TestRestoreSessionRejectsIncoherentState(t *testing.T) {
	sess := steppedSession(t)
	base := sess.ExportState()
	base.LastFactors = validFactors(base)
	if _, err := RestoreSession(base); err != nil {
		t.Fatalf("coherent state must restore: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(st *State)
	}{
		// The codec decodes counters as uint64; a crafted snapshot can make
		// the int casts negative.
		{"negative batches", func(st *State) { st.Batches = -1 }},
		{"negative skips", func(st *State) { st.Skips = -1 }},
		{"negative vocab docs", func(st *State) { st.VocabDocs = -1 }},
		{"batches without frozen vocabulary", func(st *State) {
			st.Frozen = false
			st.VocabWords = nil
			st.Sf0 = nil
			st.LastFactors = nil
		}},
		{"history rows vs vocabulary", func(st *State) {
			st.Online.SfHist[0].Sf = mat.NewDense(1, st.Config.K)
			st.Online.SfHist[0].Seen = make([]bool, 1)
		}},
		// A snapshot's user history is outside input: the solver indexes it
		// by user id, and the read plane counts its users.
		{"history for a negative user id", func(st *State) { st.Online.UserIDs[0] = -1 }},
		{"history for a user outside the universe", func(st *State) {
			st.Online.UserIDs[len(st.Online.UserIDs)-1] = 1 << 40
		}},
		{"factors missing core", func(st *State) { st.LastFactors.Hp = nil }},
		{"factors Sf shape", func(st *State) {
			st.LastFactors.Sf = mat.NewDense(len(st.VocabWords)+1, st.Config.K)
		}},
		{"factors core shape", func(st *State) {
			st.LastFactors.Hp = mat.NewDense(st.Config.K, st.Config.K+1)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := sess.ExportState()
			st.LastFactors = validFactors(st)
			tc.mutate(st)
			if _, err := RestoreSession(st); err == nil {
				t.Fatal("incoherent state restored without error")
			}
		})
	}
}
