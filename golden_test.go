package triclust_test

import (
	"bytes"
	"errors"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"triclust"
	"triclust/internal/codec"
	"triclust/internal/engine"
)

var updateGolden = flag.Bool("update-golden", false,
	"regenerate the golden fixtures this build writes (only when deliberately changing the snapshot format, what a snapshot holds, or the solver's arithmetic)")

const (
	goldenPath = "testdata/golden_v5.snap"
	// formsGoldenPath is the same topic as written by the last version-4
	// build (the lexicon stored, plain word lists, the user history a record
	// per user), denseGoldenPath by the last version-3 build (every matrix
	// stored dense), wideGoldenPath by the version-3 builds before it, which
	// retained one feature snapshot and one row per user more than a later
	// step can read, and fixedGoldenPath by the last version-2 build
	// (fixed-width integers, Sp and Su stored, conformance section included,
	// the same wide history). No build can regenerate any of them any more:
	// they are what an upgraded daemon finds in its data dir.
	formsGoldenPath = "testdata/golden_v4.snap"
	denseGoldenPath = "testdata/golden_v3.snap"
	wideGoldenPath  = "testdata/golden_v3_wide_history.snap"
	fixedGoldenPath = "testdata/golden_v2.snap"
)

// legacySnapshot is the header of a version-1 snapshot (draw-counted
// stdlib RNG, no generator identifier): magic, version 1, zeros. No later
// build can replay such a random stream, so a restore must fail at the
// version field with a clean version error.
var legacySnapshot = append([]byte("TRICSNAP\x01\x00"), make([]byte, 10)...)

// goldenTopic builds the topic the golden fixture was generated from:
// a tiny fully deterministic stream (pre-tokenized tweets, fixed seed).
func goldenTopic(t *testing.T) *triclust.Topic {
	t.Helper()
	users := []triclust.User{
		{Name: "ann", Label: triclust.NoLabel},
		{Name: "bob", Label: triclust.NoLabel},
		{Name: "cyn", Label: triclust.NoLabel},
	}
	cfg := triclust.OnlineConfig{}
	cfg.MaxIter = 5
	cfg.Seed = 42
	tp, err := triclust.NewTopic(users,
		triclust.WithMinDF(1),
		triclust.WithSolverConfig(cfg))
	if err != nil {
		t.Fatalf("NewTopic: %v", err)
	}
	batches := [][]triclust.Tweet{
		{
			{Tokens: []string{"love", "prop37", "win"}, User: 0, Time: 0, RetweetOf: -1, Label: triclust.NoLabel},
			{Tokens: []string{"awful", "prop37", "scam"}, User: 1, Time: 0, RetweetOf: -1, Label: triclust.NoLabel},
		},
		{
			{Tokens: []string{"love", "win"}, User: 2, Time: 1, RetweetOf: -1, Label: triclust.NoLabel},
			{Tokens: []string{"awful", "scam"}, User: 1, Time: 1, RetweetOf: -1, Label: triclust.NoLabel},
		},
	}
	for day, batch := range batches {
		if _, err := tp.Process(day, batch); err != nil {
			t.Fatalf("golden batch %d: %v", day, err)
		}
	}
	return tp
}

func snapshotBytes(t *testing.T, tp *triclust.Topic) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tp.Snapshot(&buf); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	return buf.Bytes()
}

// TestGoldenSnapshotCompat pins the snapshot format to the checked-in
// fixtures, in both directions. Writing: the golden topic must snapshot
// to exactly the current-version fixture, so a layout or size drift fails
// here instead of passing as "still restores". Reading: that fixture and
// its predecessors — version 4, version 3, version 3 with the wide history,
// version 2 — must restore, to the same state: each re-snapshots as the current
// bytes, which is the in-place upgrade a daemon's next compaction
// performs. Run with -update-golden after a deliberate change of what a
// snapshot holds.
func TestGoldenSnapshotCompat(t *testing.T) {
	if *updateGolden {
		snap := snapshotBytes(t, goldenTopic(t))
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, snap, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", goldenPath, len(snap))
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden fixture: %v (generate with -update-golden)", err)
	}
	if got := snapshotBytes(t, goldenTopic(t)); !bytes.Equal(got, data) {
		t.Fatalf("golden topic snapshots to %d bytes that differ from the %d-byte fixture — codec layout drift?",
			len(got), len(data))
	}
	for _, path := range []string{formsGoldenPath, denseGoldenPath, wideGoldenPath, fixedGoldenPath} {
		written, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read earlier-build fixture: %v", err)
		}
		old, err := triclust.Restore(bytes.NewReader(written))
		if err != nil {
			t.Fatalf("%s no longer restores — upgraded daemons would quarantine live state: %v", path, err)
		}
		if got := snapshotBytes(t, old); !bytes.Equal(got, data) {
			t.Fatalf("%s re-snapshots to %d bytes that differ from the %d-byte current fixture",
				path, len(got), len(data))
		}
	}
	tp, err := triclust.Restore(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("golden snapshot no longer restores — codec format break? %v", err)
	}
	if tp.Batches() != 2 || tp.Users() != 3 {
		t.Fatalf("golden topic: %d batches, %d users", tp.Batches(), tp.Users())
	}
	wantVocab := []string{"awful", "love", "prop37", "scam", "win"}
	if got := tp.Vocabulary(); !reflect.DeepEqual(got, wantVocab) {
		t.Fatalf("golden vocabulary %v, want %v", got, wantVocab)
	}
	if last, ok := tp.LastTime(); !ok || last != 1 {
		t.Fatalf("golden last time %d/%v, want 1", last, ok)
	}
	for u := 0; u < 3; u++ {
		est, ok := tp.UserEstimate(u)
		if !ok || est.Confidence < 0 || est.Confidence > 1 {
			t.Fatalf("golden user %d estimate %+v ok=%v", u, est, ok)
		}
	}
	// The restored topic is live: it accepts the stream's next batch and
	// predicts from its restored factors.
	out, err := tp.Process(2, []triclust.Tweet{
		{Tokens: []string{"love", "prop37"}, User: 0, Time: 2, RetweetOf: -1, Label: triclust.NoLabel},
	})
	if err != nil {
		t.Fatalf("golden continuation: %v", err)
	}
	if out.Skipped || len(out.TweetSentiments) != 1 {
		t.Fatalf("golden continuation outcome %+v", out)
	}
	if _, err := tp.Predict([]string{"love this win"}); err != nil {
		t.Fatalf("golden predict: %v", err)
	}
}

// decodeFixture decodes a checked-in snapshot and returns its size too.
func decodeFixture(t *testing.T, path string) (*engine.State, int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st, err := codec.Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return st, len(data)
}

// sameStateButLexicon fails unless the current-version fixture decodes to
// the state the earlier version's fixture of the same topic holds, every
// float bit included, except for the frozen topic's lexicon, which only the
// earlier one carries. (reflect.DeepEqual compares floats with ==; the
// states hold no NaN and no zero a sign could hide in.)
func sameStateButLexicon(t *testing.T, earlierPath, currentPath string) {
	t.Helper()
	earlier, _ := decodeFixture(t, earlierPath)
	current, _ := decodeFixture(t, currentPath)
	if !earlier.Frozen || len(earlier.Lexicon) == 0 || current.Lexicon != nil {
		t.Fatalf("%s holds %d lexicon entries (frozen %v), %s %d: want some and none",
			earlierPath, len(earlier.Lexicon), earlier.Frozen, currentPath, len(current.Lexicon))
	}
	earlier.Lexicon = nil
	if !reflect.DeepEqual(earlier, current) {
		t.Fatalf("%s and %s decode to different states", earlierPath, currentPath)
	}
}

// TestGoldenDerivationPinned pins the arithmetic of the format's derived
// matrix form for good: the version-3 fixture stores the newest feature
// snapshot as the solver recorded it, the version-4 fixture of the same
// topic stores nothing and has Decode rebuild it from the last solve's Sf,
// and the two must decode to the same state, every float bit included. A
// change to how Decode derives (or to what the solver records) fails here
// before it silently changes what files on disk mean. The version-5 fixture
// holds that state too, less the lexicon a frozen topic no longer stores.
func TestGoldenDerivationPinned(t *testing.T) {
	stored, v3 := decodeFixture(t, denseGoldenPath)
	derived, v4 := decodeFixture(t, formsGoldenPath)
	if !reflect.DeepEqual(stored, derived) {
		t.Fatal("golden_v3 (matrix stored) and golden_v4 (matrix derived) decode to different states")
	}
	// reflect.DeepEqual compares floats with ==: compare the bits too, and
	// make sure the fixture exercises the derivation at all.
	hist := stored.Online.SfHist
	a, b := hist[len(hist)-1].Sf.Data(), derived.Online.SfHist[len(hist)-1].Sf.Data()
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("derived entry %d is %x, the solver recorded %x", i, math.Float64bits(b[i]), math.Float64bits(a[i]))
		}
	}
	if saved, matrix := v3-v4, 8*len(a); saved < matrix {
		t.Fatalf("golden_v4 is %d bytes smaller than golden_v3, less than the %d-byte matrix it should not store", saved, matrix)
	}
	sameStateButLexicon(t, formsGoldenPath, goldenPath)
}

// TestLegacySnapshotRejectedByVersion pins the compatibility story for
// pre-SplitMix64 snapshots: their recorded random-stream position belongs
// to a different generator, so they must be turned away with a
// self-describing version error — never half-parsed or silently replayed
// on the wrong stream.
func TestLegacySnapshotRejectedByVersion(t *testing.T) {
	_, err := triclust.Restore(bytes.NewReader(legacySnapshot))
	if !errors.Is(err, codec.ErrVersion) {
		t.Fatalf("legacy v1 snapshot: got %v, want ErrVersion", err)
	}
}

const (
	// offlineGoldenPath pins a FitCorpus solve (Algorithm 1) and
	// retweetGoldenPath an online stream (Algorithm 2), both over a retweet
	// graph and at the paper's regularizer weights. The golden topic has no
	// retweet and configures no weight, so its Gu is empty, α = β = γ = 0, and
	// it reaches neither a float of the offline loop nor the lexicon seeding,
	// the graph term or the temporal terms of the online one.
	offlineGoldenPath = "testdata/golden_v5_offline.snap"
	retweetGoldenPath = "testdata/golden_v5_retweet.snap"
	// The two as the last version-4 build wrote them, when the pins were
	// made: format version 5 carried the pinned solves over from these, it
	// did not run them again and trust the result.
	offlineFormsGoldenPath = "testdata/golden_v4_offline.snap"
	retweetFormsGoldenPath = "testdata/golden_v4_retweet.snap"
)

// TestGoldenOfflineFit pins, bit for bit, the solver paths
// TestGoldenSnapshotCompat cannot see: the snapshot after an offline fit
// carries that solve's Sf, Hp and Hu, the one after three online steps the
// factors plus the Sf and Su history that the lexicon prior, the graph
// regularizer and the temporal terms shaped. A refactor of internal/core
// that reorders one float operation or one random draw on either path fails
// here. Run with -update-golden only after a deliberate change to the
// solver's arithmetic. Each solve is held to two fixtures: its snapshot is
// the current-version file byte for byte, and that file holds the state the
// version-4 file of the same solve does (which restores, and re-snapshots
// as the current one) — so a change of format re-spells the pin and cannot
// move it.
func TestGoldenOfflineFit(t *testing.T) {
	pin := func(path, earlierPath string, tp *triclust.Topic) {
		t.Helper()
		got := snapshotBytes(t, tp)
		if *updateGolden {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("wrote %s (%d bytes)", path, len(got))
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read golden fixture: %v (generate with -update-golden)", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: the topic snapshots to %d bytes that differ from the %d-byte fixture — solver arithmetic drift?",
				path, len(got), len(want))
		}
		sameStateButLexicon(t, earlierPath, path)
		written, err := os.ReadFile(earlierPath)
		if err != nil {
			t.Fatal(err)
		}
		old, err := triclust.Restore(bytes.NewReader(written))
		if err != nil {
			t.Fatalf("%s no longer restores: %v", earlierPath, err)
		}
		if !bytes.Equal(snapshotBytes(t, old), want) {
			t.Fatalf("%s re-snapshots to other bytes than %s", earlierPath, path)
		}
	}
	users := []triclust.User{
		{Name: "ann", Label: triclust.NoLabel},
		{Name: "bob", Label: triclust.NoLabel},
		{Name: "cyn", Label: triclust.NoLabel},
	}
	newTopic := func() *triclust.Topic {
		t.Helper()
		cfg := triclust.DefaultOnlineConfig() // α, β, γ > 0, lexicon seeding on
		cfg.MaxIter = 5
		cfg.Seed = 42
		tp, err := triclust.NewTopic(users,
			triclust.WithMinDF(1),
			triclust.WithSolverConfig(cfg))
		if err != nil {
			t.Fatalf("NewTopic: %v", err)
		}
		return tp
	}
	tweet := func(time, user, retweetOf int, tokens ...string) triclust.Tweet {
		return triclust.Tweet{Tokens: tokens, User: user, Time: time, RetweetOf: retweetOf, Label: triclust.NoLabel}
	}

	offline := newTopic()
	res, err := offline.FitCorpus(&triclust.Corpus{Users: users, Tweets: []triclust.Tweet{
		tweet(0, 0, -1, "love", "prop37", "win"),
		tweet(0, 1, -1, "awful", "prop37", "scam"),
		tweet(0, 2, 0, "love", "prop37", "win"), // cyn retweets ann
		tweet(1, 1, -1, "awful", "scam"),
		tweet(1, 0, -1, "great", "win"),
		tweet(1, 2, -1, "love", "great"),
	}})
	if err != nil {
		t.Fatalf("FitCorpus: %v", err)
	}
	if res.Iterations != 5 || res.Converged {
		t.Fatalf("offline fit ran %d sweeps (converged %v), want the 5-sweep cap", res.Iterations, res.Converged)
	}
	pin(offlineGoldenPath, offlineFormsGoldenPath, offline)

	// The golden stream's two batches, then one whose retweet joins cyn to
	// ann in Gu while all three users carry history (Eq. 26 rows).
	online := newTopic()
	for day, batch := range [][]triclust.Tweet{
		{
			tweet(0, 0, -1, "love", "prop37", "win"),
			tweet(0, 1, -1, "awful", "prop37", "scam"),
		},
		{
			tweet(1, 2, -1, "love", "win"),
			tweet(1, 1, -1, "awful", "scam"),
		},
		{
			tweet(2, 0, -1, "love", "prop37"),
			tweet(2, 1, -1, "awful", "scam"),
			tweet(2, 2, 0, "love", "prop37"), // cyn retweets ann
		},
	} {
		out, err := online.Process(day, batch)
		if err != nil {
			t.Fatalf("retweet stream batch %d: %v", day, err)
		}
		if out.Iterations != 5 || out.Converged {
			t.Fatalf("batch %d ran %d sweeps (converged %v), want the 5-sweep cap", day, out.Iterations, out.Converged)
		}
	}
	pin(retweetGoldenPath, retweetFormsGoldenPath, online)
}
