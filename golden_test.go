package triclust_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"triclust"
	"triclust/internal/codec"
	"triclust/internal/engine"
	"triclust/internal/mat"
)

var updateGolden = flag.Bool("update-golden", false,
	"regenerate the golden fixtures this build writes (only when deliberately changing the snapshot format, what a snapshot holds, or the solver's arithmetic)")

const (
	goldenPath = "testdata/golden_v5.snap"
	// v4GoldenPath is the same topic as the last version-4 build wrote it:
	// an intact snapshot of a version this build does not read.
	v4GoldenPath = "testdata/golden_v4.snap"
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
// fixture, in both directions. Writing: the golden topic must snapshot to
// exactly the fixture, so a layout or size drift fails here instead of
// passing as "still restores". Reading: the fixture must restore to a live
// topic. Run with -update-golden after a deliberate change of what a
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

// goldenDigests pins the state each fixture decodes to: stateDigest of it,
// written here by hand. -update-golden rewrites the fixtures, never these,
// so a regenerated fixture cannot move a float of the solver or of the
// derived form's arithmetic without failing checkDigest. Each
// value is also what the version-3 and version-4 files of the same solves
// decoded to, when builds still read them.
var goldenDigests = map[string]uint64{
	goldenPath:        0x69e628d74341890d,
	offlineGoldenPath: 0x54d8816c5196c511,
	retweetGoldenPath: 0x96f7f34997fd7630,
}

// stateDigest is FNV-64a over the numbers of a state, 8 bytes each: the
// counters, Sf0, the user labels, the last solve's factors, and the online
// state — draws, warm-start cores, the feature history with its times and
// masks, and the user history with its ids and times. A float counts by its
// bits; a matrix by its shape, then its entries.
func stateDigest(st *engine.State) uint64 {
	h := fnv.New64a()
	var b [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	ints := func(vs ...int) {
		word(uint64(len(vs)))
		for _, v := range vs {
			word(uint64(v))
		}
	}
	matrix := func(m *mat.Dense) {
		if m == nil {
			word(math.MaxUint64)
			return
		}
		ints(m.Rows(), m.Cols())
		for _, v := range m.Data() {
			word(math.Float64bits(v))
		}
	}
	ints(st.Batches, st.Skips, st.VocabDocs, int(st.Epoch))
	matrix(st.Sf0)
	for _, u := range st.Users {
		ints(u.Label)
	}
	if f := st.LastFactors; f != nil {
		matrix(f.Sf)
		matrix(f.Hp)
		matrix(f.Hu)
	}
	if o := st.Online; o != nil {
		word(o.RandDraws)
		matrix(o.LastHp)
		matrix(o.LastHu)
		for _, s := range o.SfHist {
			ints(s.Time)
			matrix(s.Sf)
			for _, seen := range s.Seen {
				if seen {
					word(1)
				} else {
					word(0)
				}
			}
		}
		ints(o.UserIDs...)
		ints(o.UserTimes...)
		matrix(o.UserRows)
	}
	return h.Sum64()
}

// checkDigest holds the fixture at path to the state goldenDigests pins,
// after any -update-golden rewrite of it.
func checkDigest(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st, err := codec.Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if got, want := stateDigest(st), goldenDigests[path]; got != want {
		t.Fatalf("%s decodes to a state of digest %#016x, pinned %#016x — solver or derivation arithmetic drift?", path, got, want)
	}
}

// TestGoldenDerivationPinned pins the arithmetic of the format's derived
// matrix form: golden_v5.snap stores its newest feature snapshot in that
// form (TestGoldenNewestSnapshotDerived in internal/codec), so what the
// file decodes to, held to its pinned digest, is what Decode derives. A
// change to how Decode derives (or to what the solver records, once the
// fixture is regenerated) fails here before it silently changes what files
// on disk mean.
func TestGoldenDerivationPinned(t *testing.T) { checkDigest(t, goldenPath) }

// TestLegacySnapshotRejectedByVersion pins the compatibility story for
// snapshots of other versions: a version-1 one recorded its random-stream
// position on a different generator, and a version-4 one is a layout this
// build no longer reads. Both must be turned away with a self-describing
// version error — never half-parsed or silently replayed.
func TestLegacySnapshotRejectedByVersion(t *testing.T) {
	_, err := triclust.Restore(bytes.NewReader(legacySnapshot))
	if !errors.Is(err, codec.ErrVersion) {
		t.Fatalf("legacy v1 snapshot: got %v, want ErrVersion", err)
	}
	v4, err := os.ReadFile(v4GoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := triclust.Restore(bytes.NewReader(v4)); !errors.Is(err, codec.ErrVersion) {
		t.Fatalf("%s: got %v, want ErrVersion", v4GoldenPath, err)
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
)

// TestGoldenOfflineFit pins, bit for bit, the solver paths
// TestGoldenSnapshotCompat cannot see: the snapshot after an offline fit
// carries that solve's Sf, Hp and Hu, the one after three online steps the
// factors plus the Sf and Su history that the lexicon prior, the graph
// regularizer and the temporal terms shaped. A refactor of internal/core
// that reorders one float operation or one random draw on either path fails
// here. Run with -update-golden only after a deliberate change to the
// solver's arithmetic. Each solve's snapshot is its fixture byte for byte,
// and checkDigest holds that fixture to a pinned state — so a
// change of format re-spells the pin and cannot move it.
func TestGoldenOfflineFit(t *testing.T) {
	pin := func(path string, tp *triclust.Topic) {
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
		checkDigest(t, path)
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
	pin(offlineGoldenPath, offline)

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
	pin(retweetGoldenPath, online)
}
