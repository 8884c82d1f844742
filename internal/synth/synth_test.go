package synth

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"triclust/internal/lexicon"
	"triclust/internal/tgraph"
)

func mustGenerate(t *testing.T, cfg Config) *Dataset {
	t.Helper()
	d, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return d
}

func TestGenerateValidCorpus(t *testing.T) {
	d := mustGenerate(t, DefaultConfig())
	if err := d.Corpus.Validate(); err != nil {
		t.Fatalf("corpus invalid: %v", err)
	}
	if d.Corpus.NumTweets() == 0 {
		t.Fatal("no tweets generated")
	}
	if d.Corpus.NumUsers() != DefaultConfig().NumUsers {
		t.Fatalf("users = %d", d.Corpus.NumUsers())
	}
	if len(d.TweetClass) != d.Corpus.NumTweets() {
		t.Fatal("TweetClass length mismatch")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := mustGenerate(t, DefaultConfig())
	b := mustGenerate(t, DefaultConfig())
	if a.Corpus.NumTweets() != b.Corpus.NumTweets() {
		t.Fatal("same seed produced different corpora")
	}
	for i := range a.Corpus.Tweets {
		ta, tb := a.Corpus.Tweets[i], b.Corpus.Tweets[i]
		if ta.User != tb.User || ta.Time != tb.Time || ta.Label != tb.Label {
			t.Fatalf("tweet %d differs", i)
		}
	}
}

func TestGenerateSeedChangesOutput(t *testing.T) {
	cfg := DefaultConfig()
	a := mustGenerate(t, cfg)
	cfg.Seed = 999
	b := mustGenerate(t, cfg)
	if a.Corpus.NumTweets() == b.Corpus.NumTweets() {
		// Counts may coincide; compare first tweet tokens too.
		same := len(a.Corpus.Tweets[0].Tokens) == len(b.Corpus.Tweets[0].Tokens)
		if same {
			for i, tok := range a.Corpus.Tweets[0].Tokens {
				if tok != b.Corpus.Tweets[0].Tokens[i] {
					same = false
					break
				}
			}
		}
		if same {
			t.Fatal("different seeds produced identical output")
		}
	}
}

func TestTweetTokensMatchClassDistribution(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NeutralWordProb = 0.2
	cfg.OppositeWordProb = 0.05
	d := mustGenerate(t, cfg)
	posSet := map[string]bool{}
	for _, w := range d.PosWords {
		posSet[w] = true
	}
	negSet := map[string]bool{}
	for _, w := range d.NegWords {
		negSet[w] = true
	}
	// Original (non-retweet) Pos tweets should contain more pos words
	// than neg words on aggregate.
	var posHits, negHits int
	for i, tw := range d.Corpus.Tweets {
		if tw.RetweetOf >= 0 || d.TweetClass[i] != lexicon.Pos {
			continue
		}
		for _, tok := range tw.Tokens {
			if posSet[tok] {
				posHits++
			}
			if negSet[tok] {
				negHits++
			}
		}
	}
	if posHits <= negHits*2 {
		t.Fatalf("pos tweets not pos-dominated: %d pos vs %d neg tokens", posHits, negHits)
	}
}

func TestRetweetsReferenceEarlierTweets(t *testing.T) {
	d := mustGenerate(t, DefaultConfig())
	sawRetweet := false
	for i, tw := range d.Corpus.Tweets {
		if tw.RetweetOf < 0 {
			continue
		}
		sawRetweet = true
		if tw.RetweetOf >= i {
			t.Fatalf("tweet %d retweets later tweet %d", i, tw.RetweetOf)
		}
		src := d.Corpus.Tweets[tw.RetweetOf]
		if src.Time > tw.Time {
			t.Fatalf("retweet source in the future: %d > %d", src.Time, tw.Time)
		}
	}
	if !sawRetweet {
		t.Fatal("no retweets generated with RetweetProb=0.3")
	}
}

func TestRetweetHomophily(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Homophily = 0.95
	cfg.TweetNoiseProb = 0
	d := mustGenerate(t, cfg)
	var same, total int
	for i, tw := range d.Corpus.Tweets {
		if tw.RetweetOf < 0 {
			continue
		}
		st := d.StanceAt(tw.User, tw.Time)
		if st == lexicon.Neu {
			continue
		}
		total++
		if d.TweetClass[tw.RetweetOf] == st {
			same++
		}
		_ = i
	}
	if total < 20 {
		t.Skip("too few polar retweets to measure")
	}
	if frac := float64(same) / float64(total); frac < 0.6 {
		t.Fatalf("homophily fraction = %v, want > 0.6", frac)
	}
}

func TestBurstRaisesVolume(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ChurnFrac = 0
	cfg.BurstMultiplier = 8
	d := mustGenerate(t, cfg)
	perDay := make([]int, cfg.Days)
	for _, tw := range d.Corpus.Tweets {
		perDay[tw.Time]++
	}
	var base, peak float64
	for t0 := 0; t0 < 5; t0++ {
		base += float64(perDay[t0]) / 5
	}
	for t0 := cfg.ElectionDay - 1; t0 <= cfg.ElectionDay+1; t0++ {
		peak += float64(perDay[t0]) / 3
	}
	if peak < 2*base {
		t.Fatalf("burst peak %.1f not well above base %.1f", peak, base)
	}
}

func TestChurnCreatesNewAndDisappearedUsers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ChurnFrac = 0.8
	d := mustGenerate(t, cfg)
	mid := cfg.Days / 2
	first, _ := d.Corpus.Slice(0, mid)
	second, _ := d.Corpus.Slice(mid, cfg.Days)
	newU, _, disappeared := tgraph.CategorizeUsers(first.ActiveUsers(), second.ActiveUsers())
	if len(newU) == 0 {
		t.Fatal("no new users despite churn")
	}
	if len(disappeared) == 0 {
		t.Fatal("no disappeared users despite churn")
	}
}

func TestEvolvingUsersFlip(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EvolveFrac = 0.5
	d := mustGenerate(t, cfg)
	ev := d.EvolvingUsers()
	if len(ev) == 0 {
		t.Fatal("no evolving users")
	}
	for u, day := range ev {
		before := d.StanceAt(u, day-1)
		after := d.StanceAt(u, day)
		if before == after {
			t.Fatalf("user %d did not flip at day %d", u, day)
		}
		if after != 1-before {
			t.Fatalf("flip not Pos↔Neg: %d → %d", before, after)
		}
	}
}

func TestUserStancesAtConsistent(t *testing.T) {
	d := mustGenerate(t, DefaultConfig())
	st := d.UserStancesAt(5)
	for u := range st {
		if st[u] != d.StanceAt(u, 5) {
			t.Fatal("UserStancesAt disagrees with StanceAt")
		}
	}
}

func TestLabelCoverage(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LabeledUserFrac = 0.5
	cfg.NumUsers = 400
	d := mustGenerate(t, cfg)
	labeled := 0
	for _, u := range d.Corpus.Users {
		if u.Label != tgraph.NoLabel {
			labeled++
		}
	}
	frac := float64(labeled) / float64(len(d.Corpus.Users))
	if frac < 0.35 || frac > 0.65 {
		t.Fatalf("labeled user fraction = %v, want ≈ 0.5", frac)
	}
}

func TestPlantedLexicon(t *testing.T) {
	d := mustGenerate(t, DefaultConfig())
	lex := d.PlantedLexicon(0.5, 0, 7)
	wantLen := int(0.5*float64(len(d.PosWords))) + int(0.5*float64(len(d.NegWords)))
	if lex.Len() != wantLen {
		t.Fatalf("lexicon size = %d, want %d", lex.Len(), wantLen)
	}
	if c, ok := lex.Class(d.PosWords[0]); !ok || c != lexicon.Pos {
		t.Fatal("top pos word missing or misclassed")
	}
	// With noise, some words flip.
	noisy := d.PlantedLexicon(1, 0.5, 7)
	flips := 0
	for _, w := range d.PosWords {
		if c, ok := noisy.Class(w); ok && c == lexicon.Neg {
			flips++
		}
	}
	if flips == 0 {
		t.Fatal("noise produced no flips")
	}
}

func TestValidateRejectsBadConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ClassProbs = [3]float64{0.5, 0.2, 0.1}
	if _, err := Generate(cfg); err == nil {
		t.Fatal("expected class-prob error")
	}
	cfg = DefaultConfig()
	cfg.NumUsers = 0
	if _, err := Generate(cfg); err == nil {
		t.Fatal("expected user-count error")
	}
	cfg = DefaultConfig()
	cfg.RetweetProb = 1.5
	if _, err := Generate(cfg); err == nil {
		t.Fatal("expected probability error")
	}
	// An empty or negative planted vocabulary is refused, not a panic.
	for _, n := range []int{0, -1} {
		cfg = DefaultConfig()
		cfg.PolarWordsPerClass = n
		if _, err := Generate(cfg); err == nil {
			t.Fatalf("expected error for PolarWordsPerClass=%d", n)
		}
		cfg = DefaultConfig()
		cfg.NeutralWords = n
		if _, err := Generate(cfg); err == nil {
			t.Fatalf("expected error for NeutralWords=%d", n)
		}
	}
}

func TestPresetSkews(t *testing.T) {
	p37 := mustGenerate(t, Scaled(Prop37Config(), 4))
	var pos, neg int
	for _, c := range p37.TweetClass {
		switch c {
		case lexicon.Pos:
			pos++
		case lexicon.Neg:
			neg++
		}
	}
	if pos < 4*neg {
		t.Fatalf("Prop37 skew lost: %d pos vs %d neg", pos, neg)
	}
}

func TestScaled(t *testing.T) {
	base := Prop30Config()
	s := Scaled(base, 4)
	if s.NumUsers >= base.NumUsers || s.Days >= base.Days {
		t.Fatal("Scaled did not shrink")
	}
	if s.ElectionDay >= s.Days {
		t.Fatal("Scaled election day out of range")
	}
	if Scaled(base, 1).NumUsers != base.NumUsers {
		t.Fatal("factor 1 should be identity")
	}
	noBurst := DefaultConfig()
	noBurst.ElectionDay = -1
	if got := Scaled(noBurst, 2).ElectionDay; got != -1 {
		t.Fatalf("Scaled turned a disabled burst on: ElectionDay = %d, want -1", got)
	}
}

func TestPoissonSampler(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += float64(samplePoisson(rng, 4))
	}
	if mean := sum / n; math.Abs(mean-4) > 0.15 {
		t.Fatalf("poisson mean = %v, want ≈ 4", mean)
	}
	// Large-mean branch.
	sum = 0
	for i := 0; i < n; i++ {
		sum += float64(samplePoisson(rng, 100))
	}
	if mean := sum / n; math.Abs(mean-100) > 1 {
		t.Fatalf("poisson(100) mean = %v", mean)
	}
	if samplePoisson(rng, 0) != 0 {
		t.Fatal("poisson(0) != 0")
	}
}

func TestZipfSamplerHeadHeavy(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	z := newZipf(rng, 1.2, 100)
	counts := make([]int, 100)
	for i := 0; i < 10000; i++ {
		counts[z.Sample()]++
	}
	if counts[0] <= counts[50] {
		t.Fatalf("rank 0 (%d) not more frequent than rank 50 (%d)", counts[0], counts[50])
	}
	if counts[0] < 1000 {
		t.Fatalf("head rank too rare: %d", counts[0])
	}
}

func TestTable2ShapeTopWords(t *testing.T) {
	// The most frequent planted words should be the named seeds, echoing
	// the paper's Table 2.
	d := mustGenerate(t, DefaultConfig())
	counts := map[string]int{}
	for _, tw := range d.Corpus.Tweets {
		for _, tok := range tw.Tokens {
			counts[tok]++
		}
	}
	if counts["yeson37"] == 0 || counts["corn"] == 0 {
		t.Fatal("seed words unused")
	}
	if counts["yeson37"] < counts[d.PosWords[len(d.PosWords)-1]] {
		t.Fatal("top pos word rarer than tail word")
	}
}

func TestFrequencyDriftShiftsDistributions(t *testing.T) {
	base := DefaultConfig()
	base.ChurnFrac = 0
	base.EvolveFrac = 0

	tv := func(cfg Config) float64 {
		d := mustGenerate(t, cfg)
		// Aggregate corpus-wide token histograms for first vs last
		// quarter of days and compare (total-variation distance).
		span := cfg.Days / 4
		early := map[string]float64{}
		late := map[string]float64{}
		var ne, nl float64
		for _, tw := range d.Corpus.Tweets {
			switch {
			case tw.Time < span:
				for _, tok := range tw.Tokens {
					early[tok]++
					ne++
				}
			case tw.Time >= cfg.Days-span:
				for _, tok := range tw.Tokens {
					late[tok]++
					nl++
				}
			}
		}
		keys := map[string]struct{}{}
		for k := range early {
			keys[k] = struct{}{}
		}
		for k := range late {
			keys[k] = struct{}{}
		}
		var dist float64
		for k := range keys {
			dist += math.Abs(early[k]/ne - late[k]/nl)
		}
		return dist / 2
	}

	noDrift := tv(base)
	drifted := base
	drifted.FrequencyDrift = 2
	withDrift := tv(drifted)
	if withDrift <= noDrift {
		t.Fatalf("drift did not increase distribution shift: %.3f vs %.3f", withDrift, noDrift)
	}
}

func TestFrequencyDriftKeepsClassMembership(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FrequencyDrift = 3
	cfg.OppositeWordProb = 0
	cfg.TweetNoiseProb = 0
	cfg.RetweetProb = 0
	d := mustGenerate(t, cfg)
	posSet := map[string]bool{}
	for _, w := range d.PosWords {
		posSet[w] = true
	}
	negSet := map[string]bool{}
	for _, w := range d.NegWords {
		negSet[w] = true
	}
	// With all noise off, pos tweets must never contain neg words even
	// under drift (drift moves popularity, not sentiment).
	for i, tw := range d.Corpus.Tweets {
		if d.TweetClass[i] != lexicon.Pos {
			continue
		}
		for _, tok := range tw.Tokens {
			if negSet[tok] {
				t.Fatalf("drift leaked %q into a positive tweet", tok)
			}
		}
	}
}

func TestFrequencyDriftPinsSeedWords(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FrequencyDrift = 5
	d := mustGenerate(t, cfg)
	counts := map[string]int{}
	for _, tw := range d.Corpus.Tweets {
		for _, tok := range tw.Tokens {
			counts[tok]++
		}
	}
	// The pinned head words remain the most frequent polar words.
	if counts["yeson37"] < counts[d.PosWords[len(d.PosWords)-1]] {
		t.Fatal("drift displaced the pinned head word")
	}
}

// datasetDigest is an FNV-64a digest over everything Generate decides:
// every user's name and label; every tweet's user, time, retweet target,
// label and tokens; the planted class of every tweet; and the three
// planted word lists.
func datasetDigest(d *Dataset) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	num := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		h.Write(buf[:])
	}
	str := func(s string) {
		num(len(s))
		h.Write([]byte(s))
	}
	num(len(d.Corpus.Users))
	for _, u := range d.Corpus.Users {
		str(u.Name)
		num(u.Label)
	}
	num(len(d.Corpus.Tweets))
	for _, tw := range d.Corpus.Tweets {
		num(tw.User)
		num(tw.Time)
		num(tw.RetweetOf)
		num(tw.Label)
		num(len(tw.Tokens))
		for _, tok := range tw.Tokens {
			str(tok)
		}
	}
	num(len(d.TweetClass))
	for _, c := range d.TweetClass {
		num(c)
	}
	for _, words := range [][]string{d.PosWords, d.NegWords, d.NeutWords} {
		num(len(words))
		for _, w := range words {
			str(w)
		}
	}
	return h.Sum64()
}

// daemonTopicConfig is the corpus shape of one topic of the benchmark's
// daemon_ingest workload: 480 batches of 30 tweets from 60 users.
func daemonTopicConfig() Config {
	cfg := DefaultConfig()
	cfg.NumUsers = 60
	cfg.ElectionDay = -1
	cfg.TweetsPerUserDay = 1.15 * 14400 / float64(cfg.NumUsers*cfg.Days) / 0.85
	return cfg
}

// TestGenerateDigests pins every byte Generate produces for a spread of
// configurations, so a change to the generator's internals that moves a
// single draw fails here.
func TestGenerateDigests(t *testing.T) {
	prop37 := Prop37Config()
	prop37.Seed = 38
	// Every tweet tries to be a retweet. Day 0 has no yesterday, the
	// corpus's first tweet finds an empty pool, and the sparse variant
	// also has later days whose first tweets find one.
	stress := func(homophily float64) Config {
		cfg := DefaultConfig()
		cfg.RetweetProb = 1
		cfg.Homophily = homophily
		cfg.ChurnFrac = 1
		return cfg
	}
	sparse := stress(0.5)
	sparse.NumUsers = 20
	sparse.TweetsPerUserDay = 0.05
	for _, tc := range []struct {
		name string
		cfg  Config
		want uint64
	}{
		{"default", DefaultConfig(), 0x23ed4ee063ea5379},
		{"prop30/4", Scaled(Prop30Config(), 4), 0x915dd73d11477998},
		{"prop37/seed38", prop37, 0xf529e69926e3e07e},
		{"daemon_ingest_topic", daemonTopicConfig(), 0xf3bcc9591865f12f},
		{"all_retweets/homophily0", stress(0), 0xdaf01b3a550fbf16},
		{"all_retweets/homophily1", stress(1), 0xd26189fbb8157c69},
		{"all_retweets/sparse", sparse, 0x0165b669fe125c95},
	} {
		d := mustGenerate(t, tc.cfg)
		if got := datasetDigest(d); got != tc.want {
			t.Errorf("%s: digest %#016x, want %#016x", tc.name, got, tc.want)
		}
	}
}

// BenchmarkGenerate times corpus generation at the two shapes the
// benchmark workloads generate most: online_replay's seed-1 corpus and
// one daemon_ingest topic.
func BenchmarkGenerate(b *testing.B) {
	prop37 := Prop37Config()
	prop37.Seed = 38
	for _, bc := range []struct {
		name string
		cfg  Config
	}{
		{"prop37", prop37},
		{"daemon_ingest_topic", daemonTopicConfig()},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Generate(bc.cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
