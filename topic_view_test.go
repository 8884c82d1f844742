// Tests for the RCU read plane: published views must be immutable,
// bit-identical to a quiesced topic at the same stream position
// (including across snapshot/restore), carry a sane convergence
// indicator, and survive a -race hammering of readers against
// concurrent Process, snapshot export, restore and epoch changes.
package triclust_test

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"triclust"
	"triclust/internal/synth"
)

// viewEstimates collects every known user's estimate from a view.
func viewEstimates(v triclust.ReadView) map[int]triclust.Sentiment {
	out := make(map[int]triclust.Sentiment)
	for u := 0; u < v.Users(); u++ {
		if est, ok := v.UserEstimate(u); ok {
			out[u] = est
		}
	}
	return out
}

// requireSameView asserts two views carry the same fingerprint and
// bit-identical estimates (== on float64, no tolerance).
func requireSameView(t *testing.T, label string, a, b triclust.ReadView) {
	t.Helper()
	ab, ar := a.StreamPos()
	bb, br := b.StreamPos()
	if ab != bb || ar != br {
		t.Fatalf("%s: fingerprint (%d,%d) vs (%d,%d)", label, ab, ar, bb, br)
	}
	if a.KnownUsers() != b.KnownUsers() || a.Users() != b.Users() {
		t.Fatalf("%s: known %d/%d vs %d/%d", label, a.KnownUsers(), a.Users(), b.KnownUsers(), b.Users())
	}
	ea, eb := viewEstimates(a), viewEstimates(b)
	if len(ea) != len(eb) {
		t.Fatalf("%s: %d vs %d known users", label, len(ea), len(eb))
	}
	for u, sa := range ea {
		sb, ok := eb[u]
		if !ok {
			t.Fatalf("%s: user %d known in one view only", label, u)
		}
		if sa.Class != sb.Class || sa.Confidence != sb.Confidence {
			t.Fatalf("%s: user %d estimate %+v vs %+v (must be bit-identical)", label, u, sa, sb)
		}
	}
	fa, fb := a.FeatureSentiments(), b.FeatureSentiments()
	if len(fa) != len(fb) {
		t.Fatalf("%s: %d vs %d feature sentiments", label, len(fa), len(fb))
	}
	for i := range fa {
		if fa[i].Class != fb[i].Class || fa[i].Confidence != fb[i].Confidence {
			t.Fatalf("%s: feature %d sentiment %+v vs %+v", label, i, fa[i], fb[i])
		}
	}
}

// TestReadViewBitIdenticalMidStream is the read-plane acceptance test:
// views published mid-stream must equal, bit for bit, what an
// independent run of the same batches publishes at the same counter —
// and a topic restored from a mid-stream snapshot must publish the
// pre-snapshot view verbatim, then continue publishing identical views.
// Captured views are immutable: later batches must not disturb them.
func TestReadViewBitIdenticalMidStream(t *testing.T) {
	d := demoCorpus(t, 17)
	const days, cut = 8, 4
	batches := dayBatches(d, days)

	newTopic := func() *triclust.Topic {
		tp, err := triclust.NewTopic(d.Corpus.Users)
		if err != nil {
			t.Fatalf("NewTopic: %v", err)
		}
		return tp
	}

	// Run A: record the view after every batch.
	a := newTopic()
	views := make([]triclust.ReadView, 0, days)
	for day := 0; day < days; day++ {
		if _, err := a.Process(day, batches[day]); err != nil {
			t.Fatalf("run A day %d: %v", day, err)
		}
		views = append(views, a.ReadView())
	}

	// Run B: identical input, every per-day view must match A's.
	b := newTopic()
	for day := 0; day < days; day++ {
		if _, err := b.Process(day, batches[day]); err != nil {
			t.Fatalf("run B day %d: %v", day, err)
		}
		requireSameView(t, fmt.Sprintf("run B day %d", day), views[day], b.ReadView())
	}

	// Run C: snapshot at the cut, restore, continue. The restored topic's
	// first view must equal the cut view; subsequent views must keep
	// matching A's records.
	c := newTopic()
	for day := 0; day < cut; day++ {
		if _, err := c.Process(day, batches[day]); err != nil {
			t.Fatalf("run C day %d: %v", day, err)
		}
	}
	var snap bytes.Buffer
	if err := c.Snapshot(&snap); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	restored, err := triclust.Restore(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	requireSameView(t, "restored at cut", views[cut-1], restored.ReadView())
	for day := cut; day < days; day++ {
		if _, err := restored.Process(day, batches[day]); err != nil {
			t.Fatalf("restored day %d: %v", day, err)
		}
		requireSameView(t, fmt.Sprintf("restored day %d", day), views[day], restored.ReadView())
	}

	// Immutability: the day-0 capture still reports day-0 state.
	if got := views[0].Batches(); got != 1 {
		t.Fatalf("captured day-0 view mutated: batches = %d, want 1", got)
	}
	requireSameView(t, "day-0 capture", views[0], views[0])
}

// TestReadViewConvergenceLifecycle pins the progressive-answer contract:
// a fresh topic reports warming, a topic fed batches leaves warming once
// the vocabulary froze and the temporal window filled, the delta is a
// sane magnitude, and a skipped (empty) batch carries the view over —
// counter, fingerprint and convergence unchanged — instead of falsely
// re-classifying an unchanged stream as steady.
func TestReadViewConvergenceLifecycle(t *testing.T) {
	d := demoCorpus(t, 5)
	batches := dayBatches(d, 8)
	tp, err := triclust.NewTopic(d.Corpus.Users)
	if err != nil {
		t.Fatalf("NewTopic: %v", err)
	}

	v := tp.ReadView()
	if c := v.Convergence(); c.State != triclust.Warming || c.Batches != 0 {
		t.Fatalf("fresh topic: convergence %+v, want warming at 0 batches", c)
	}
	if _, ok := v.UserEstimate(0); ok {
		t.Fatal("fresh topic: user 0 unexpectedly known")
	}

	for day := 0; day < 8; day++ {
		if _, err := tp.Process(day, batches[day]); err != nil {
			t.Fatalf("day %d: %v", day, err)
		}
		c := tp.ReadView().Convergence()
		if c.Batches != day+1 {
			t.Fatalf("day %d: convergence reports %d batches", day, c.Batches)
		}
		if c.Delta < 0 || c.Delta > 1 {
			t.Fatalf("day %d: delta %g out of [0,1]", day, c.Delta)
		}
		if day >= 2 && c.State == triclust.Warming {
			t.Fatalf("day %d: still warming after freeze + window fill", day)
		}
	}

	before := tp.ReadView()
	if _, err := tp.Process(100, nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	after := tp.ReadView()
	if after.SkippedBatches() != before.SkippedBatches()+1 {
		t.Fatalf("skip counter %d, want %d", after.SkippedBatches(), before.SkippedBatches()+1)
	}
	ab, ar := after.StreamPos()
	bb, br := before.StreamPos()
	if ab != bb || ar != br {
		t.Fatalf("empty batch moved the fingerprint: (%d,%d) -> (%d,%d)", bb, br, ab, ar)
	}
	if ca, cb := after.Convergence(), before.Convergence(); ca != cb {
		t.Fatalf("empty batch changed convergence: %+v -> %+v", cb, ca)
	}
}

// TestReadViewRCUStress hammers the read plane under -race: reader
// goroutines load views (asserting per-reader monotone batch counters
// and epochs, and internally consistent views) while one writer
// processes batches and bumps the epoch, one exporter streams snapshots
// and one restorer round-trips snapshots and checks the restored view
// against the writer's record for the same stream position.
func TestReadViewRCUStress(t *testing.T) {
	d := demoCorpus(t, 29)
	const days = 24
	batches := dayBatches(d, days)
	tp, err := triclust.NewTopic(d.Corpus.Users)
	if err != nil {
		t.Fatalf("NewTopic: %v", err)
	}
	if _, err := tp.Process(0, batches[0]); err != nil {
		t.Fatalf("day 0: %v", err)
	}

	var (
		done     atomic.Bool
		mu       sync.Mutex
		recorded = map[int]triclust.ReadView{1: tp.ReadView()}
		fail     = make(chan string, 16)
	)
	report := func(format string, args ...any) {
		select {
		case fail <- fmt.Sprintf(format, args...):
		default:
		}
	}

	var wg sync.WaitGroup

	// Writer: the remaining batches, bumping the epoch every few days.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		for day := 1; day < days; day++ {
			if _, err := tp.Process(day, batches[day]); err != nil {
				report("writer day %d: %v", day, err)
				return
			}
			v := tp.ReadView()
			mu.Lock()
			recorded[v.Batches()] = v
			mu.Unlock()
			if day%5 == 0 {
				tp.SetEpoch(uint64(day))
			}
		}
	}()

	// Readers: monotone counters, internally consistent views.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			lastBatches, lastEpoch := -1, uint64(0)
			for !done.Load() {
				v := tp.ReadView()
				if v.Batches() < lastBatches {
					report("reader %d: batches went backwards: %d -> %d", r, lastBatches, v.Batches())
					return
				}
				if v.Epoch() < lastEpoch {
					report("reader %d: epoch went backwards: %d -> %d", r, lastEpoch, v.Epoch())
					return
				}
				lastBatches, lastEpoch = v.Batches(), v.Epoch()
				if v.Convergence().Batches != v.Batches() {
					report("reader %d: torn view: convergence batches %d vs %d", r, v.Convergence().Batches, v.Batches())
					return
				}
				known := 0
				for u := 0; u < v.Users(); u++ {
					if _, ok := v.UserEstimate(u); ok {
						known++
					}
				}
				if known != v.KnownUsers() {
					report("reader %d: torn view: %d known users enumerated, counter says %d", r, known, v.KnownUsers())
					return
				}
			}
		}(r)
	}

	// Exporter: snapshots must stream cleanly mid-ingest.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !done.Load() {
			if err := tp.Snapshot(io.Discard); err != nil {
				report("exporter: %v", err)
				return
			}
		}
	}()

	// Restorer: a snapshot restored mid-ingest must publish a view
	// bit-identical to the one the writer recorded at that position.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var buf bytes.Buffer
		for !done.Load() {
			buf.Reset()
			if err := tp.Snapshot(&buf); err != nil {
				report("restorer snapshot: %v", err)
				return
			}
			r, err := triclust.Restore(bytes.NewReader(buf.Bytes()))
			if err != nil {
				report("restorer restore: %v", err)
				return
			}
			rv := r.ReadView()
			mu.Lock()
			src, ok := recorded[rv.Batches()]
			mu.Unlock()
			if !ok {
				continue
			}
			sb, sr := src.StreamPos()
			gb, gr := rv.StreamPos()
			if sb != gb || sr != gr {
				report("restorer: fingerprint (%d,%d) vs recorded (%d,%d)", gb, gr, sb, sr)
				return
			}
			se, ge := viewEstimates(src), viewEstimates(rv)
			if len(se) != len(ge) {
				report("restorer: %d vs %d known users at batch %d", len(ge), len(se), gb)
				return
			}
			for u, want := range se {
				if got := ge[u]; got != want {
					report("restorer: user %d estimate %+v vs %+v at batch %d", u, got, want, gb)
					return
				}
			}
		}
	}()

	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
}

// TestFreezeIsVisibleToTheView: an explicit Freeze changes what the view
// reports, so it republishes it — Topic and ReadView give one answer, not
// the model's through one door and the last batch's through the other.
func TestFreezeIsVisibleToTheView(t *testing.T) {
	tp, err := triclust.NewTopic([]triclust.User{{Name: "a"}}, triclust.WithMinDF(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := tp.WarmupVocabulary("label gmo ballot"); err != nil {
		t.Fatal(err)
	}
	if tp.Frozen() || tp.ReadView().Frozen() || tp.VocabSize() != 0 {
		t.Fatal("warm-up alone froze the vocabulary")
	}
	if err := tp.Freeze(); err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	rv := tp.ReadView()
	if !tp.Frozen() || tp.VocabSize() != 3 || !rv.Frozen() || rv.VocabSize() != 3 {
		t.Fatalf("after Freeze: Topic says frozen=%v size=%d, its view frozen=%v size=%d; want true/3 from both",
			tp.Frozen(), tp.VocabSize(), rv.Frozen(), rv.VocabSize())
	}
	if got := len(tp.Vocabulary()); got != 3 {
		t.Fatalf("vocabulary has %d words, the view reports 3", got)
	}
	// A refused second Freeze leaves the published view alone.
	if err := tp.Freeze(); err == nil || tp.ReadView() != rv {
		t.Fatalf("second Freeze: err=%v, view republished=%v", err, tp.ReadView() != rv)
	}
}

// TestReadsNeverWaitOnASolve: nothing that reports a result or a counter
// queues behind an in-flight Process. Asserted by order, not by clock: the
// first batch freezes the vocabulary inside Process, under both the topic's
// and the session's lock, and Vocabulary (which reads the model's immutable
// word list, not the view) shows it — from then until the done channel
// fills, every accessor below is called against a held lock. Each must
// return, and with the last committed state: the topic as it was created.
func TestReadsNeverWaitOnASolve(t *testing.T) {
	cfg := synth.DefaultConfig()
	cfg.Seed, cfg.NumUsers, cfg.Days = 41, 1500, 8
	d, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var batch []triclust.Tweet
	for _, b := range dayBatches(d, cfg.Days) {
		batch = append(batch, b...)
	}
	tp, err := triclust.NewTopic(d.Corpus.Users)
	if err != nil {
		t.Fatal(err)
	}
	before := tp.ReadView()

	done := make(chan error, 1)
	go func() {
		_, err := tp.Process(0, batch)
		done <- err
	}()
	for tp.Vocabulary() == nil {
		runtime.Gosched()
	}

	batches, draws := tp.StreamPos()
	_, hasTime := tp.LastTime()
	_, known := tp.UserEstimate(batch[0].User)
	_, predictErr := tp.Predict([]string{"label gmo"})
	if tp.Users() != len(d.Corpus.Users) || tp.Batches() != 0 || batches != 0 || draws != 0 ||
		tp.SkippedBatches() != 0 || tp.KnownUsers() != 0 || hasTime || known || tp.Epoch() != 0 ||
		tp.Frozen() || tp.VocabSize() != 0 || tp.FeatureSentiments() != nil ||
		tp.ConformanceReport() != before.ConformanceReport() || tp.ReadView() != before || predictErr == nil {
		t.Error("a read during the first solve answered with something other than the topic as created")
	}
	select {
	case err := <-done:
		t.Fatalf("the solve (err=%v) finished before the reads returned: one waited on it, or the batch is too small to tell", err)
	default:
	}
	if err := <-done; err != nil {
		t.Fatalf("Process: %v", err)
	}
	if tp.Batches() != 1 || !tp.Frozen() || tp.KnownUsers() == 0 || tp.ReadView() == before {
		t.Fatal("the committed batch did not publish")
	}
}
