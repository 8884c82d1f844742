package store

import (
	"errors"
	"testing"

	"triclust"
	"triclust/internal/fault"
)

// TestFailedSaveLosesNoAckedBatch: a save that fails leaves every batch
// whose append was acked — before it or after it — in what a reopen
// serves. A failure after the snapshot's rename (the directory fsync's)
// is the hard case: disk may hold either snapshot, so the open journal,
// which extends the old one, must take no more appends.
func TestFailedSaveLosesNoAckedBatch(t *testing.T) {
	for _, site := range []string{"persist.snap.write", "persist.snap.rename", "persist.dir.sync"} {
		t.Run(site, func(t *testing.T) {
			dir := t.TempDir()
			script := fault.NewScript()
			st := openStore(t, dir, script)
			tp, err := triclust.NewTopic([]triclust.User{{Name: "a", Label: triclust.NoLabel}, {Name: "b", Label: triclust.NoLabel}})
			if err != nil {
				t.Fatal(err)
			}
			h := st.Handle("t", false)
			current := func(string) *Handle { return h }
			if _, err := h.Save(tp, current); err != nil {
				t.Fatal(err)
			}
			acked := 0
			batch := func(day int) {
				t.Helper()
				tweets := []triclust.Tweet{
					{Text: "love great win support", User: 0, Time: day, RetweetOf: -1, Label: triclust.NoLabel},
					{Text: "hate awful loss sad", User: 1, Time: day, RetweetOf: -1, Label: triclust.NoLabel},
				}
				if _, err := tp.Process(day, tweets); err != nil {
					t.Fatal(err)
				}
				b, d := tp.StreamPos()
				if _, _, err := h.Append(day, tweets, b, d); err == nil {
					acked = b
				}
			}
			batch(1)
			batch(2)
			script.AddRule(fault.Rule{Site: site, Err: errors.New("injected")})
			if _, err := h.Save(tp, current); err == nil {
				t.Fatal("save succeeded with a failing " + site)
			}
			batch(3)
			batch(4)
			h.Close()

			rt, err := openStore(t, dir, nil).Load("t")
			if err != nil {
				t.Fatal(err)
			}
			if got, _ := rt.Topic.StreamPos(); got < acked {
				t.Fatalf("reopen serves %d batches, %d were acked", got, acked)
			}
		})
	}
}
