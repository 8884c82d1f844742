package triclust_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"triclust"
	"triclust/internal/codec"
	"triclust/internal/engine"
	"triclust/internal/mat"
	"triclust/internal/synth"
)

// dayBatches splits a synthetic dataset into per-day tweet batches
// (dropping retweet links, whose indices are corpus-global).
func dayBatches(d *synth.Dataset, days int) [][]triclust.Tweet {
	batches := make([][]triclust.Tweet, days)
	for _, tw := range d.Corpus.Tweets {
		tw.RetweetOf = -1
		if tw.Time >= 0 && tw.Time < days {
			batches[tw.Time] = append(batches[tw.Time], tw)
		}
	}
	return batches
}

func maxAbsDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// requireSameStep asserts two online step results are identical within
// tol (the acceptance criterion for snapshot/restore continuation).
func requireSameStep(t *testing.T, day int, a, b *triclust.StreamResult, tol float64) {
	t.Helper()
	if a.Skipped != b.Skipped {
		t.Fatalf("day %d: skipped %v vs %v", day, a.Skipped, b.Skipped)
	}
	if a.Skipped {
		return
	}
	if a.Iterations != b.Iterations || a.Converged != b.Converged {
		t.Fatalf("day %d: iterations %d/%v vs %d/%v",
			day, a.Iterations, a.Converged, b.Iterations, b.Converged)
	}
	if len(a.TweetSentiments) != len(b.TweetSentiments) {
		t.Fatalf("day %d: tweet count %d vs %d", day, len(a.TweetSentiments), len(b.TweetSentiments))
	}
	for i := range a.TweetSentiments {
		if a.TweetSentiments[i].Class != b.TweetSentiments[i].Class {
			t.Fatalf("day %d tweet %d: class %d vs %d", day, i,
				a.TweetSentiments[i].Class, b.TweetSentiments[i].Class)
		}
		if d := math.Abs(a.TweetSentiments[i].Confidence - b.TweetSentiments[i].Confidence); d > tol {
			t.Fatalf("day %d tweet %d: confidence differs by %g", day, i, d)
		}
	}
	if len(a.ActiveUsers) != len(b.ActiveUsers) {
		t.Fatalf("day %d: active users %d vs %d", day, len(a.ActiveUsers), len(b.ActiveUsers))
	}
	for i := range a.ActiveUsers {
		if a.ActiveUsers[i] != b.ActiveUsers[i] {
			t.Fatalf("day %d: active user %d is %d vs %d", day, i, a.ActiveUsers[i], b.ActiveUsers[i])
		}
	}
	for _, pair := range [][2][]float64{
		{a.Raw.Sp.Data(), b.Raw.Sp.Data()},
		{a.Raw.Su.Data(), b.Raw.Su.Data()},
		{a.Raw.Sf.Data(), b.Raw.Sf.Data()},
		{a.Raw.Hp.Data(), b.Raw.Hp.Data()},
		{a.Raw.Hu.Data(), b.Raw.Hu.Data()},
	} {
		if d := maxAbsDiff(pair[0], pair[1]); d > tol {
			t.Fatalf("day %d: factor matrices differ by %g (tol %g)", day, d, tol)
		}
	}
}

// TestTopicSnapshotRestoreMidStream is the acceptance test of the
// snapshot subsystem: a topic snapshotted after batch t and restored in a
// fresh "process" must produce bit-identical results for batches t+1… as
// the uninterrupted session.
func TestTopicSnapshotRestoreMidStream(t *testing.T) {
	d := demoCorpus(t, 11)
	const days, cut = 8, 4
	batches := dayBatches(d, days)

	newTopic := func() *triclust.Topic {
		tp, err := triclust.NewTopic(d.Corpus.Users)
		if err != nil {
			t.Fatalf("NewTopic: %v", err)
		}
		return tp
	}

	// Run A: uninterrupted.
	full := newTopic()
	var want []*triclust.StreamResult
	for day := 0; day < days; day++ {
		out, err := full.Process(day, batches[day])
		if err != nil {
			t.Fatalf("full process day %d: %v", day, err)
		}
		if day >= cut {
			want = append(want, out)
		}
	}

	// Run B: same prefix, then snapshot, restore, and continue.
	prefix := newTopic()
	for day := 0; day < cut; day++ {
		if _, err := prefix.Process(day, batches[day]); err != nil {
			t.Fatalf("prefix process day %d: %v", day, err)
		}
	}
	var snap bytes.Buffer
	if err := prefix.Snapshot(&snap); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	restored, err := triclust.Restore(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if restored.Batches() != prefix.Batches() || restored.Users() != prefix.Users() {
		t.Fatalf("restored counters: batches %d vs %d, users %d vs %d",
			restored.Batches(), prefix.Batches(), restored.Users(), prefix.Users())
	}
	for day := cut; day < days; day++ {
		out, err := restored.Process(day, batches[day])
		if err != nil {
			t.Fatalf("restored process day %d: %v", day, err)
		}
		requireSameStep(t, day, want[day-cut], out, 0)
	}

	// User estimates after the full run agree too.
	for u := 0; u < full.Users(); u++ {
		ea, oka := full.UserEstimate(u)
		eb, okb := restored.UserEstimate(u)
		if oka != okb {
			t.Fatalf("user %d: known %v vs %v", u, oka, okb)
		}
		if oka && ea != eb {
			t.Fatalf("user %d: estimate %+v vs %+v", u, ea, eb)
		}
	}
}

// TestTopicSnapshotDeterministic: equal states produce byte-identical
// snapshots (maps are serialized in sorted order).
func TestTopicSnapshotDeterministic(t *testing.T) {
	d := demoCorpus(t, 3)
	batches := dayBatches(d, 8)
	tp, err := triclust.NewTopic(d.Corpus.Users)
	if err != nil {
		t.Fatal(err)
	}
	for day := 0; day < 3; day++ {
		if _, err := tp.Process(day, batches[day]); err != nil {
			t.Fatal(err)
		}
	}
	var s1, s2 bytes.Buffer
	if err := tp.Snapshot(&s1); err != nil {
		t.Fatal(err)
	}
	if err := tp.Snapshot(&s2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(s1.Bytes(), s2.Bytes()) {
		t.Fatal("two snapshots of the same state differ")
	}
}

// TestSnapshotIsAFunctionOfTheStream: a snapshot holds the history a later
// batch can read, measured against the last batch — never what happened
// to be in memory. So a topic snapshotted and restored after any prefix of
// a stream, then fed the rest, ends on the bytes the uninterrupted topic
// ends on (the window is 3 and users come and go, so a topic that was
// never restored holds rows in memory that a restored one does not); and
// the snapshot stops growing once every user has been seen, however long
// they keep tweeting.
func TestSnapshotIsAFunctionOfTheStream(t *testing.T) {
	gen := synth.DefaultConfig()
	gen.Seed = 17
	gen.NumUsers = 40
	gen.Days = 12
	gen.ElectionDay = 8
	d, err := synth.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	batches := dayBatches(d, gen.Days)
	cfg := triclust.OnlineConfig{Window: 3}
	cfg.MaxIter = 4
	feed := func(tp *triclust.Topic, from, to int) {
		t.Helper()
		for day := from; day < to; day++ {
			// Day 6 arrives late: a timestamp gap wider than the window.
			ts := day
			if day >= 6 {
				ts += 4
			}
			if _, err := tp.Process(ts, batches[day]); err != nil {
				t.Fatalf("day %d: %v", day, err)
			}
		}
	}
	fresh := func() *triclust.Topic {
		t.Helper()
		tp, err := triclust.NewTopic(d.Corpus.Users, triclust.WithSolverConfig(cfg))
		if err != nil {
			t.Fatal(err)
		}
		return tp
	}
	whole := fresh()
	feed(whole, 0, gen.Days)
	want := snapshotBytes(t, whole)
	for cut := 1; cut < gen.Days; cut++ {
		tp := fresh()
		feed(tp, 0, cut)
		tp, err := triclust.Restore(bytes.NewReader(snapshotBytes(t, tp)))
		if err != nil {
			t.Fatalf("restore after %d batches: %v", cut, err)
		}
		feed(tp, cut, gen.Days)
		if got := snapshotBytes(t, tp); !bytes.Equal(got, want) {
			t.Fatalf("restored after %d of %d batches: final snapshot is %d bytes that differ from the uninterrupted topic's %d",
				cut, gen.Days, len(got), len(want))
		}
	}

	// Nor does a snapshot checked in by an earlier run show: the golden
	// fixture holds the golden stream after its two batches. Fed a third
	// batch, it ends on the bytes of the golden topic that never restored.
	written, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := triclust.Restore(bytes.NewReader(written))
	if err != nil {
		t.Fatal(err)
	}
	never := goldenTopic(t)
	third := []triclust.Tweet{
		{Tokens: []string{"love", "prop37"}, User: 0, Time: 2, RetweetOf: -1, Label: triclust.NoLabel},
		{Tokens: []string{"awful", "scam"}, User: 2, Time: 2, RetweetOf: -1, Label: triclust.NoLabel},
	}
	for _, tp := range []*triclust.Topic{restored, never} {
		if _, err := tp.Process(2, third); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(snapshotBytes(t, restored), snapshotBytes(t, never)) {
		t.Fatal("a topic restored from the golden fixture mid-stream ends on other bytes than one that never restored")
	}

	// Every user tweets in every batch, for n batches and then n more. The
	// counters and timestamps are varints and may gain a byte each; one
	// leaked row per user would be some 40 × 25 bytes.
	const n = 6
	everyone := make([]triclust.Tweet, len(d.Corpus.Users))
	steady := fresh()
	size := func(upTo int) int {
		t.Helper()
		for ts := steady.Batches(); ts < upTo; ts++ {
			for u := range everyone {
				everyone[u] = triclust.Tweet{Tokens: batches[0][(u+ts)%len(batches[0])].Tokens,
					User: u, Time: ts, RetweetOf: -1, Label: triclust.NoLabel}
			}
			if _, err := steady.Process(ts, everyone); err != nil {
				t.Fatalf("steady batch %d: %v", ts, err)
			}
		}
		return len(snapshotBytes(t, steady))
	}
	if a, b := size(n), size(2*n); b > a+16 {
		t.Fatalf("snapshot is %d bytes after %d batches of the same users and %d after %d: it holds history nothing can read",
			a, n, b, 2*n)
	}
}

// TestSnapshotElidesOnlyWhatTheRestDetermines: the newest feature snapshot
// is not stored when it is the last solve's Sf row-normalized — after any
// Process it is — and is stored whenever it is not: the encoder checks, it
// does not assume. Either way the snapshot restores and re-snapshots to
// the same bytes, and decodes and re-encodes to them.
func TestSnapshotElidesOnlyWhatTheRestDetermines(t *testing.T) {
	d := demoCorpus(t, 21)
	batches := dayBatches(d, 8)
	stream := func(window, days int) *triclust.Topic {
		t.Helper()
		cfg := triclust.OnlineConfig{Window: window}
		cfg.MaxIter = 4
		tp, err := triclust.NewTopic(d.Corpus.Users, triclust.WithSolverConfig(cfg))
		if err != nil {
			t.Fatal(err)
		}
		for day := 0; day < days; day++ {
			if _, err := tp.Process(day, batches[day]); err != nil {
				t.Fatal(err)
			}
		}
		return tp
	}
	decode := func(snap []byte) *engine.State {
		t.Helper()
		st, err := codec.Decode(bytes.NewReader(snap))
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	encode := func(st *engine.State) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := codec.Encode(&buf, st); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	// check round-trips a snapshot both ways and returns how many bytes it
	// saves on the newest feature snapshot, measured from outside: the same
	// state with one bit of that matrix changed has to store it.
	check := func(name string, snap []byte, retained int) (elided, matrix int) {
		t.Helper()
		tp, err := triclust.Restore(bytes.NewReader(snap))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(snapshotBytes(t, tp), snap) {
			t.Fatalf("%s: restored topic snapshots to other bytes", name)
		}
		st := decode(snap)
		if !bytes.Equal(encode(st), snap) {
			t.Fatalf("%s: decoded state encodes to other bytes", name)
		}
		hist := st.Online.SfHist
		if len(hist) != retained {
			t.Fatalf("%s: %d feature snapshots retained, want %d", name, len(hist), retained)
		}
		sf := hist[len(hist)-1].Sf
		sf.Data()[0] = math.Nextafter(sf.Data()[0], 2)
		// The stored form: form byte aside, two one-byte dimensions
		// (fewer than 128 words) and the floats.
		return len(encode(st)) - len(snap), 2 + 8*len(sf.Data())
	}

	live := stream(2, 3)
	if elided, matrix := check("default window", snapshotBytes(t, live), 1); elided != matrix {
		t.Fatalf("default window: newest feature snapshot costs %d bytes less than stored, want %d (derived)", elided, matrix)
	}
	if elided, matrix := check("window 3", snapshotBytes(t, stream(3, 4)), 2); elided != matrix {
		t.Fatalf("window 3: newest feature snapshot costs %d bytes less than stored, want %d (derived)", elided, matrix)
	}

	// An offline fit replaces the last solve; the feature history is still
	// the last Process's.
	if _, err := live.FitCorpus(&triclust.Corpus{Tweets: batches[3], Users: d.Corpus.Users}); err != nil {
		t.Fatal(err)
	}
	refit := snapshotBytes(t, live)
	if elided, _ := check("FitCorpus after Process", refit, 1); elided != 0 {
		t.Fatalf("FitCorpus after Process: the feature snapshot is not the last solve's, yet storing it costs %d bytes more", elided)
	}

	// An exporter may leave the last factors out.
	st := decode(refit)
	st.LastFactors = nil
	if elided, _ := check("no last factors", encode(st), 1); elided != 0 {
		t.Fatalf("no last factors: nothing to derive from, yet storing the feature snapshot costs %d bytes more", elided)
	}
	if got := decode(encode(st)); !reflect.DeepEqual(got, st) {
		t.Fatal("no last factors: state does not round-trip")
	}

	// Nothing dead: once the vocabulary is frozen nothing reads the lexicon,
	// and the snapshot holds none; before, the freeze still needs it.
	const k = 3
	frozen := decode(snapshotBytes(t, stream(2, 3)))
	if !frozen.Frozen || frozen.Lexicon != nil {
		t.Fatalf("frozen topic stores %d lexicon entries", len(frozen.Lexicon))
	}
	warming, err := triclust.NewTopic(d.Corpus.Users)
	if err != nil {
		t.Fatal(err)
	}
	if err := warming.WarmupVocabulary("prop37 labeling ballot", "prop37 vote yes"); err != nil {
		t.Fatal(err)
	}
	unfrozen := snapshotBytes(t, warming)
	if st := decode(unfrozen); st.Frozen || len(st.Lexicon) == 0 || !bytes.Equal(encode(st), unfrozen) {
		t.Fatalf("unfrozen topic: frozen %v, %d lexicon entries; want the lexicon, and the same bytes back", st.Frozen, len(st.Lexicon))
	}
	if tp, err := triclust.Restore(bytes.NewReader(unfrozen)); err != nil || !bytes.Equal(snapshotBytes(t, tp), unfrozen) {
		t.Fatalf("unfrozen topic does not restore to the same bytes: %v", err)
	}

	// Nothing twice: after a Process the warm-start cores are the last
	// solve's, and cost a form byte each; one bit apart, a core is stored —
	// form, two dimensions, k×k floats.
	snap := snapshotBytes(t, stream(2, 3))
	st = decode(snap)
	if !reflect.DeepEqual(st.Online.LastHp, st.LastFactors.Hp) || !reflect.DeepEqual(st.Online.LastHu, st.LastFactors.Hu) {
		t.Fatal("the warm-start cores are not the last solve's after a Process")
	}
	hp := st.Online.LastHp.Data()
	hp[0] = math.Nextafter(hp[0], 2)
	perturbed := encode(st)
	if grew, core := len(perturbed)-len(snap), 2+8*k*k; grew != core {
		t.Fatalf("a warm-start core one bit off the last solve's costs %d bytes more, want %d (stored)", grew, core)
	}
	if got := decode(perturbed); !reflect.DeepEqual(got, st) {
		t.Fatal("perturbed core: state does not round-trip")
	}

	// A position is a position: at the default window a user holds one row
	// and the history has no counts; at window 3 some hold two and every
	// user has one. Cutting those users back to their newest row saves the
	// rows cut (an age byte and k floats each) and every count.
	wide := snapshotBytes(t, stream(3, 4))
	st = decode(wide)
	o := st.Online
	keep, users := make([]int, 0, len(o.UserIDs)), 0
	for i, g := range o.UserIDs {
		if i+1 == len(o.UserIDs) || o.UserIDs[i+1] != g {
			keep = append(keep, i)
			users++
		}
	}
	cut := len(o.UserIDs) - users
	if cut == 0 {
		t.Fatal("window 3: no user holds two rows")
	}
	if one := decode(snapshotBytes(t, stream(2, 3))).Online; len(one.UserIDs) == 0 || one.UserRows.Rows() != len(one.UserIDs) {
		t.Fatal("default window: no history")
	} else {
		for i := 1; i < len(one.UserIDs); i++ {
			if one.UserIDs[i] == one.UserIDs[i-1] {
				t.Fatalf("default window: user %d holds two rows", one.UserIDs[i])
			}
		}
	}
	ids, times, rows := make([]int, users), make([]int, users), make([]float64, 0, users*k)
	for at, i := range keep {
		ids[at], times[at] = o.UserIDs[i], o.UserTimes[i]
		rows = append(rows, o.UserRows.Row(i)...)
	}
	o.UserIDs, o.UserTimes, o.UserRows = ids, times, mat.NewDenseData(users, k, rows)
	if saved, want := len(wide)-len(encode(st)), cut*(1+8*k)+users; saved != want {
		t.Fatalf("window 3: one row a user saves %d bytes, want %d (%d rows and %d counts)", saved, want, cut, users)
	}
}

// TestSnapshotGrowthPerWord: at the default window a frozen word costs a
// snapshot one row of the last solve's Sf (8k bytes), the part of it the
// word before it does not start with (front coding: two length bytes and
// the suffix), one dictionary index of the prior and one mask bit — not the
// three stored matrix rows (24k) it cost while the prior and the newest
// feature snapshot were stored too, and not its every byte. A silent
// fall-back to dense, or to plain strings, anywhere fails here.
func TestSnapshotGrowthPerWord(t *testing.T) {
	d := demoCorpus(t, 23)
	batches := dayBatches(d, 8)
	const extra, wordLen = 64, 8
	word := func(i int) string { return fmt.Sprintf("zz%0*d", wordLen-2, i) }
	size := func(more int) (bytes, words int) {
		t.Helper()
		cfg := triclust.OnlineConfig{}
		cfg.MaxIter = 4
		tp, err := triclust.NewTopic(d.Corpus.Users, triclust.WithSolverConfig(cfg), triclust.WithMinDF(1))
		if err != nil {
			t.Fatal(err)
		}
		// The vocabulary is the first two batches' words, and words no
		// tweet will ever use.
		warm := [][]string{}
		for _, tw := range append(append([]triclust.Tweet(nil), batches[0]...), batches[1]...) {
			warm = append(warm, tw.Tokens)
		}
		for i := 0; i < more; i++ {
			warm = append(warm, []string{word(i)})
		}
		if err := tp.WarmupTokenized(warm); err != nil {
			t.Fatal(err)
		}
		if err := tp.Freeze(); err != nil {
			t.Fatal(err)
		}
		for day := 0; day < 2; day++ {
			if _, err := tp.Process(day, batches[day]); err != nil {
				t.Fatal(err)
			}
		}
		return len(snapshotBytes(t, tp)), tp.VocabSize()
	}
	small, w := size(0)
	large, w2 := size(extra)
	if w2 != w+extra {
		t.Fatalf("vocabulary grew from %d to %d words, want %d more", w, w2, extra)
	}
	// The added words sort behind the rest, one after the other: the first
	// may share nothing with the word before it, every other all but the
	// digits that changed.
	suffixes := wordLen
	for i := 1; i < extra; i++ {
		a, b := word(i-1), word(i)
		for a[0] == b[0] {
			a, b = a[1:], b[1:]
		}
		suffixes += len(b)
	}
	const k = 3
	t.Logf("%d more words: %d -> %d bytes, %.1f a word", extra, small, large, float64(large-small)/extra)
	// Sf row, shared length, suffix length, dictionary index; suffix; mask bit.
	if limit := extra*(8*k+3) + suffixes + extra/8; large-small > limit {
		t.Fatalf("%d more words grew the snapshot from %d to %d bytes: %d, want <= %d (%d of it suffixes)",
			extra, small, large, large-small, limit, suffixes)
	}
}

// TestSnapshotGrowthPerUser is its twin for the other axis a topic grows
// along: a further user with history costs a snapshot the name, one row of
// k floats, the row's age (one byte: a row is as old as the user's silence,
// and the solver keeps none older than the window allows, except each
// user's newest) and one bit of the set of users that hold rows — not an
// id, a row count, a timestamp and a row length on top, and no label byte
// for a user without one.
func TestSnapshotGrowthPerUser(t *testing.T) {
	const base, extra, nameLen, k = 40, 360, 6, 3
	words := []string{"love", "prop37", "win", "awful", "scam", "label", "vote"}
	size := func(numUsers int) int {
		t.Helper()
		users := make([]triclust.User, numUsers)
		for i := range users {
			users[i] = triclust.User{Name: fmt.Sprintf("u%0*d", nameLen-1, i), Label: triclust.NoLabel}
		}
		cfg := triclust.OnlineConfig{}
		cfg.MaxIter = 3
		tp, err := triclust.NewTopic(users, triclust.WithSolverConfig(cfg), triclust.WithMinDF(1))
		if err != nil {
			t.Fatal(err)
		}
		for ts := 0; ts < 3; ts++ {
			batch := make([]triclust.Tweet, numUsers) // every user tweets
			for u := range batch {
				batch[u] = triclust.Tweet{
					Tokens: []string{words[(u+ts)%len(words)], words[(u+2*ts+1)%len(words)]},
					User:   u, Time: ts, RetweetOf: -1, Label: triclust.NoLabel,
				}
			}
			if _, err := tp.Process(ts, batch); err != nil {
				t.Fatal(err)
			}
		}
		if tp.KnownUsers() != numUsers {
			t.Fatalf("%d of %d users have history", tp.KnownUsers(), numUsers)
		}
		return len(snapshotBytes(t, tp))
	}
	small, large := size(base), size(base+extra)
	t.Logf("%d more users: %d -> %d bytes, %.1f a user", extra, small, large, float64(large-small)/extra)
	// Name with its length, row, age; a bit; and the few counts that gain a
	// byte (users, rows, the set's size).
	if limit := extra*(1+nameLen+8*k+1) + extra/8 + 8; large-small > limit {
		t.Fatalf("%d more users grew the snapshot from %d to %d bytes: %d, want <= %d",
			extra, small, large, large-small, limit)
	}
}

// TestTopicSnapshotPreFreeze: a topic snapshotted after vocabulary
// warm-up but before the freeze restores its accumulated counts, so both
// topics freeze the same vocabulary at the first batch.
func TestTopicSnapshotPreFreeze(t *testing.T) {
	d := demoCorpus(t, 5)
	batches := dayBatches(d, 8)
	mk := func() *triclust.Topic {
		tp, err := triclust.NewTopic(d.Corpus.Users, triclust.WithMinDF(1))
		if err != nil {
			t.Fatal(err)
		}
		if err := tp.WarmupVocabulary("prop37 labeling ballot", "prop37 vote yes"); err != nil {
			t.Fatal(err)
		}
		return tp
	}
	orig := mk()
	var snap bytes.Buffer
	if err := orig.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	restored, err := triclust.Restore(&snap)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Vocabulary() != nil {
		t.Fatal("restored pre-freeze topic has a frozen vocabulary")
	}
	a, err := orig.Process(0, batches[0])
	if err != nil {
		t.Fatal(err)
	}
	b, err := restored.Process(0, batches[0])
	if err != nil {
		t.Fatal(err)
	}
	requireSameStep(t, 0, a, b, 0)
	va, vb := orig.Vocabulary(), restored.Vocabulary()
	if len(va) == 0 || len(va) != len(vb) {
		t.Fatalf("vocabulary sizes %d vs %d", len(va), len(vb))
	}
	for i := range va {
		if va[i] != vb[i] {
			t.Fatalf("vocab word %d: %q vs %q", i, va[i], vb[i])
		}
	}
}

// TestTopicPredictAfterRestore: the snapshot carries the last solved
// factors, so fold-in prediction works immediately after a restore.
func TestTopicPredictAfterRestore(t *testing.T) {
	d := demoCorpus(t, 7)
	batches := dayBatches(d, 8)
	tp, err := triclust.NewTopic(d.Corpus.Users)
	if err != nil {
		t.Fatal(err)
	}
	for day := 0; day < 2; day++ {
		if _, err := tp.Process(day, batches[day]); err != nil {
			t.Fatal(err)
		}
	}
	texts := []string{"love this great win", "awful terrible scam"}
	want, err := tp.Predict(texts)
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	var snap bytes.Buffer
	if err := tp.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	restored, err := triclust.Restore(&snap)
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.Predict(texts)
	if err != nil {
		t.Fatalf("Predict after restore: %v", err)
	}
	for i := range want {
		if want[i].Class != got[i].Class || math.Abs(want[i].Confidence-got[i].Confidence) > 1e-12 {
			t.Fatalf("prediction %d: %+v vs %+v", i, want[i], got[i])
		}
	}
}

// TestSnapshotHoldsStateNotResults: the tweet and user factors of the last
// solve are that solve's results — nothing a restored topic does reads
// them — so the snapshot must not carry them: fitting twice the tweets
// over the same vocabulary and users leaves its length unchanged, and a
// topic restored without them still predicts, estimates and continues
// the stream exactly as the original.
func TestSnapshotHoldsStateNotResults(t *testing.T) {
	d := demoCorpus(t, 13)
	restored := func(tp *triclust.Topic) *triclust.Topic {
		t.Helper()
		out, err := triclust.Restore(bytes.NewReader(snapshotBytes(t, tp)))
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	docs := [][]string{{"love", "great", "win"}, {"awful", "scam"}, {"unseen"}}
	samePredictions := func(a, b *triclust.Topic) {
		t.Helper()
		want, err := a.PredictTokenized(docs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := b.PredictTokenized(docs)
		if err != nil {
			t.Fatalf("PredictTokenized after restore: %v", err)
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("prediction %d: %+v vs %+v", i, want[i], got[i])
			}
		}
	}

	// Offline: n tweets, then the same n twice. With min_df 1 both fits
	// freeze the same vocabulary; the user universe is the topic's.
	once := dayBatches(d, 8)[0]
	twice := append(append([]triclust.Tweet(nil), once...), once...)
	fit := func(tweets []triclust.Tweet) *triclust.Topic {
		t.Helper()
		tp, err := triclust.NewTopic(d.Corpus.Users, triclust.WithMinDF(1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tp.FitCorpus(&triclust.Corpus{Tweets: tweets, Users: d.Corpus.Users}); err != nil {
			t.Fatal(err)
		}
		return tp
	}
	small, large := fit(once), fit(twice)
	if a, b := len(snapshotBytes(t, small)), len(snapshotBytes(t, large)); a != b {
		t.Fatalf("snapshot is %d bytes after fitting %d tweets, %d after %d: it holds per-tweet results",
			a, len(once), b, len(twice))
	}
	samePredictions(large, restored(large))

	// Online: a restored topic answers reads as the original and takes
	// the next batch to bit-identical factors.
	batches := dayBatches(d, 8)
	live, err := triclust.NewTopic(d.Corpus.Users)
	if err != nil {
		t.Fatal(err)
	}
	for day := 0; day < 3; day++ {
		if _, err := live.Process(day, batches[day]); err != nil {
			t.Fatal(err)
		}
	}
	twin := restored(live)
	samePredictions(live, twin)
	for u := range d.Corpus.Users {
		want, wok := live.UserEstimate(u)
		got, gok := twin.UserEstimate(u)
		if wok != gok || want != got {
			t.Fatalf("user %d estimate: %+v/%v vs %+v/%v", u, want, wok, got, gok)
		}
	}
	a, err := live.Process(3, batches[3])
	if err != nil {
		t.Fatal(err)
	}
	b, err := twin.Process(3, batches[3])
	if err != nil {
		t.Fatal(err)
	}
	requireSameStep(t, 3, a, b, 0)
}

// TestRestoreRejectsCorruption flips every 7th byte of a valid snapshot
// (and truncates it at several lengths) and requires Restore to reject
// each mutation rather than restore silently-wrong state.
func TestRestoreRejectsCorruption(t *testing.T) {
	d := demoCorpus(t, 9)
	batches := dayBatches(d, 8)
	tp, err := triclust.NewTopic(d.Corpus.Users)
	if err != nil {
		t.Fatal(err)
	}
	for day := 0; day < 2; day++ {
		if _, err := tp.Process(day, batches[day]); err != nil {
			t.Fatal(err)
		}
	}
	var snap bytes.Buffer
	if err := tp.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	good := snap.Bytes()
	if _, err := triclust.Restore(bytes.NewReader(good)); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}

	for pos := 0; pos < len(good); pos += 7 {
		mut := append([]byte(nil), good...)
		mut[pos] ^= 0x40
		if _, err := triclust.Restore(bytes.NewReader(mut)); err == nil {
			t.Fatalf("bit flip at byte %d of %d accepted", pos, len(good))
		}
	}
	for _, cut := range []int{0, 5, 17, 18, len(good) / 2, len(good) - 1} {
		if _, err := triclust.Restore(bytes.NewReader(good[:cut])); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
	if _, err := triclust.Restore(strings.NewReader("not a snapshot at all........")); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestRestoreRejectsForeignUserHistory: a snapshot is outside input even
// when its checksum is right. History for a user id the topic's universe
// does not have would be answered by UserEstimate, counted by KnownUsers
// and carried into every later snapshot — and the solver indexes its
// history by that id — so Restore must turn the snapshot away. Since format
// version 5 the ids that hold history are a bitset: an id past the universe
// is a bit past it, which the snapshot can say and Restore refuses; a
// negative id is not a position at all, and Encode refuses to write one.
func TestRestoreRejectsForeignUserHistory(t *testing.T) {
	d := demoCorpus(t, 9)
	tp, err := triclust.NewTopic(d.Corpus.Users)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tp.Process(0, dayBatches(d, 8)[0]); err != nil {
		t.Fatal(err)
	}
	good := snapshotBytes(t, tp)
	forge := func(forge func(ids []int)) ([]byte, error) {
		t.Helper()
		st, err := codec.Decode(bytes.NewReader(good))
		if err != nil {
			t.Fatal(err)
		}
		forge(st.Online.UserIDs)
		var forged bytes.Buffer
		err = codec.Encode(&forged, st)
		return forged.Bytes(), err
	}
	past, err := forge(func(ids []int) { ids[len(ids)-1] = len(d.Corpus.Users) })
	if err != nil {
		t.Fatalf("id past universe: Encode: %v", err)
	}
	_, err = triclust.Restore(bytes.NewReader(past))
	if err == nil || errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("id past universe: Restore returned %v, want a state-validation error", err)
	}
	if _, err := forge(func(ids []int) { ids[0] = -1 }); err == nil {
		t.Fatal("negative id: Encode wrote a history the format has no encoding for")
	}
	if _, err := forge(func(ids []int) { ids[len(ids)-1] = 1 << 40 }); err == nil {
		t.Fatal("id past any universe: Encode sized a bitset by it")
	}
}

// TestNewTopicValidation: the configuration surface rejects the
// degenerate settings the solvers cannot run with — with descriptive
// errors, not panics deep in the pipeline.
func TestNewTopicValidation(t *testing.T) {
	users := []triclust.User{{Name: "u"}}
	cases := []struct {
		name string
		opts []triclust.Option
		want string
	}{
		{"negative MinDF", []triclust.Option{triclust.WithMinDF(-3)}, "MinDF"},
		{"k too large for lexicon", []triclust.Option{
			triclust.WithSolverConfig(triclust.OnlineConfig{Config: triclust.Config{K: 5}})}, "k must be 2 or 3"},
		{"k = 1", []triclust.Option{
			triclust.WithSolverConfig(triclust.OnlineConfig{Config: triclust.Config{K: 1}})}, "k must be 2 or 3"},
		{"negative window", []triclust.Option{
			triclust.WithSolverConfig(triclust.OnlineConfig{Window: -1})}, "window"},
		{"decay out of range", []triclust.Option{
			triclust.WithSolverConfig(triclust.OnlineConfig{Tau: 1.5})}, "tau"},
		{"negative regularizer", []triclust.Option{
			triclust.WithSolverConfig(triclust.OnlineConfig{Gamma: -0.2})}, "non-negative"},
		{"hit below uniform", []triclust.Option{triclust.WithLexiconHit(0.1)}, "LexiconHit"},
		{"unknown weighting", []triclust.Option{triclust.WithWeighting(triclust.Weighting(42))}, "weighting"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := triclust.NewTopic(users, tc.opts...)
			if err == nil {
				t.Fatalf("configuration accepted, want error mentioning %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}

	// Valid configurations still construct.
	if _, err := triclust.NewTopic(users); err != nil {
		t.Fatalf("default topic rejected: %v", err)
	}
	if _, err := triclust.NewTopic(nil, triclust.WithSolverConfig(
		triclust.OnlineConfig{Config: triclust.Config{K: 2}})); err != nil {
		t.Fatalf("k=2 topic rejected: %v", err)
	}
}

// TestTopicWarmupFreezeLifecycle exercises the explicit lifecycle:
// warm-up feeds the vocabulary, Freeze fixes it, later warm-up errors.
func TestTopicWarmupFreezeLifecycle(t *testing.T) {
	tp, err := triclust.NewTopic([]triclust.User{{Name: "a"}}, triclust.WithMinDF(2))
	if err != nil {
		t.Fatal(err)
	}
	if tp.Vocabulary() != nil {
		t.Fatal("vocabulary frozen before any data")
	}
	if err := tp.Freeze(); err == nil {
		t.Fatal("Freeze succeeded with no warm-up data")
	}
	err = tp.WarmupVocabulary(
		"label gmo ballot prop37",
		"label gmo vote",
		"unrelated singleton")
	if err != nil {
		t.Fatal(err)
	}
	if err := tp.Freeze(); err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	vocab := tp.Vocabulary()
	if len(vocab) != 2 { // "gmo" and "label" reach MinDF=2
		t.Fatalf("vocabulary %v, want [gmo label]", vocab)
	}
	if err := tp.WarmupVocabulary("more words"); err == nil {
		t.Fatal("warm-up accepted after freeze")
	}
	if err := tp.Freeze(); err == nil {
		t.Fatal("second Freeze accepted")
	}
	// Processing still works against the frozen vocabulary.
	out, err := tp.Process(0, []triclust.Tweet{
		{Text: "label gmo now", User: 0, RetweetOf: -1, Label: triclust.NoLabel},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Skipped || len(out.TweetSentiments) != 1 {
		t.Fatalf("unexpected outcome %+v", out)
	}
	if got := tp.Vocabulary(); len(got) != 2 {
		t.Fatalf("first batch changed the frozen vocabulary: %v", got)
	}
}

// TestTopicEpochRoundTrip covers the ownership-epoch surface used by the
// sharded daemon: epochs default to 0, survive Snapshot/Restore, and never
// perturb the snapshot's other bytes — a snapshot with the epoch reset to
// 0 is byte-identical to one taken before the epoch was ever set.
func TestTopicEpochRoundTrip(t *testing.T) {
	d := demoCorpus(t, 5)
	batches := dayBatches(d, 4)
	tp, err := triclust.NewTopic(d.Corpus.Users)
	if err != nil {
		t.Fatal(err)
	}
	for day := 0; day < 3; day++ {
		if _, err := tp.Process(day, batches[day]); err != nil {
			t.Fatal(err)
		}
	}
	if tp.Epoch() != 0 {
		t.Fatalf("fresh topic epoch %d, want 0", tp.Epoch())
	}
	var before bytes.Buffer
	if err := tp.Snapshot(&before); err != nil {
		t.Fatal(err)
	}

	tp.SetEpoch(4)
	var moved bytes.Buffer
	if err := tp.Snapshot(&moved); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(before.Bytes(), moved.Bytes()) {
		t.Fatal("epoch bump did not change the snapshot")
	}
	got, err := triclust.Restore(bytes.NewReader(moved.Bytes()))
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if got.Epoch() != 4 {
		t.Fatalf("restored epoch %d, want 4", got.Epoch())
	}

	// Resetting the epoch recovers the exact pre-epoch bytes: the epoch
	// section is the only difference, so shard hand-offs preserve the
	// bit-identical state equality the cluster harness asserts.
	got.SetEpoch(0)
	var reset bytes.Buffer
	if err := got.Snapshot(&reset); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), reset.Bytes()) {
		t.Fatal("epoch-0 snapshot of restored topic differs from the original")
	}

	// The restored topic continues the stream identically to the original
	// despite the epoch difference.
	a, err := tp.Process(3, batches[3])
	if err != nil {
		t.Fatal(err)
	}
	b, err := got.Process(3, batches[3])
	if err != nil {
		t.Fatal(err)
	}
	requireSameStep(t, 3, a, b, 0)
}

// TestAllOOVBatchKeepsTheTopicFinite: a batch in which no tweet holds a
// vocabulary word carries no evidence about the features. Its step fits
// the tweet and user factors only, so neither it nor the batches after it
// end with a non-finite objective, and a user keeps a real estimate.
func TestAllOOVBatchKeepsTheTopicFinite(t *testing.T) {
	users := []triclust.User{{Name: "a", Label: triclust.NoLabel}, {Name: "b", Label: triclust.NoLabel}, {Name: "c", Label: triclust.NoLabel}}
	tp, err := triclust.NewTopic(users)
	if err != nil {
		t.Fatal(err)
	}
	day := func(ts int, texts ...string) []triclust.Tweet {
		out := make([]triclust.Tweet, len(texts))
		for i, s := range texts {
			out[i] = triclust.Tweet{Text: s, User: i % len(users), Time: ts, RetweetOf: -1, Label: triclust.NoLabel}
		}
		return out
	}
	known := []string{"love love great prop37 win", "hate bad prop37 lose awful", "great win love prop37"}
	for _, b := range [][]triclust.Tweet{day(1, known...), day(2, "zzzq xxyy", "qqqq wwww"), day(3, known...)} {
		res, err := tp.Process(b[0].Time, b)
		if err != nil {
			t.Fatal(err)
		}
		if loss := res.Raw.History[len(res.Raw.History)-1].Total; math.IsNaN(loss) || math.IsInf(loss, 0) {
			t.Fatalf("day %d ends with objective %v", b[0].Time, loss)
		}
	}
	if s, ok := tp.UserEstimate(0); !ok || s.Confidence < 0.5 {
		t.Fatalf("user a after the batches: %+v, %v; want a confident estimate", s, ok)
	}
}
