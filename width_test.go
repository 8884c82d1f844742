package triclust_test

import (
	"bytes"
	"sync"
	"testing"

	"triclust"
	"triclust/internal/par"
	"triclust/internal/synth"
)

// TestTopicBitsIgnoreWidthAndNeighbours streams two days of 20,000 users
// (≈15k tweets a day, so the solver's products over tweets split into
// par blocks) and holds a topic's snapshot bytes to one value however the
// solves were scheduled: two topics processed concurrently each end with
// the sequential run's bytes, and a topic snapshotted after the first day
// at two procs and continued at one or four — a replica promoted on a
// shard started with another -procs — ends with the uninterrupted run's.
func TestTopicBitsIgnoreWidthAndNeighbours(t *testing.T) {
	defer par.SetProcs(0)
	cfg := synth.DefaultConfig()
	cfg.NumUsers = 20000
	cfg.Days = 2
	d, err := synth.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	batches := dayBatches(d, cfg.Days)
	for day, b := range batches {
		if par.Blocks(len(b), 9) < 2 {
			t.Fatalf("day %d holds %d tweets, too few for its n×k·k×k products to split", day, len(b))
		}
	}
	snapshot := func(tp *triclust.Topic) []byte {
		var buf bytes.Buffer
		if err := tp.Snapshot(&buf); err != nil {
			t.Errorf("Snapshot: %v", err)
		}
		return buf.Bytes()
	}
	process := func(tp *triclust.Topic, from, to int) {
		for day := from; day < to; day++ {
			if _, err := tp.Process(day, batches[day]); err != nil {
				t.Errorf("process day %d: %v", day, err)
			}
		}
	}
	// stream runs every day through a new topic and returns its snapshot;
	// it reports with t.Errorf, as it also runs off the test goroutine.
	stream := func() []byte {
		tp, err := triclust.NewTopic(d.Corpus.Users)
		if err != nil {
			t.Errorf("NewTopic: %v", err)
			return nil
		}
		process(tp, 0, cfg.Days)
		return snapshot(tp)
	}

	par.SetProcs(2)
	want := stream()

	var wg sync.WaitGroup
	concurrent := make([][]byte, 2)
	for i := range concurrent {
		wg.Add(1)
		go func() {
			defer wg.Done()
			concurrent[i] = stream()
		}()
	}
	wg.Wait()
	for i, got := range concurrent {
		if !bytes.Equal(got, want) {
			t.Errorf("concurrent topic %d: snapshot differs from the sequential run's", i)
		}
	}

	prefix, err := triclust.NewTopic(d.Corpus.Users)
	if err != nil {
		t.Fatalf("NewTopic: %v", err)
	}
	process(prefix, 0, 1)
	mid := snapshot(prefix)
	for _, procs := range []int{1, 4} {
		par.SetProcs(procs)
		tp, err := triclust.Restore(bytes.NewReader(mid))
		if err != nil {
			t.Fatalf("Restore: %v", err)
		}
		process(tp, 1, cfg.Days)
		if !bytes.Equal(snapshot(tp), want) {
			t.Errorf("snapshotted at two procs, continued at %d: snapshot differs from the uninterrupted run's", procs)
		}
	}
}
