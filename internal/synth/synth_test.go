package synth

import (
	"encoding/binary"
	"fmt"
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
	// Configs whose sums and ranges look plausible but that the samplers
	// cannot honour: a negative class weight offset by one above 1, a NaN
	// weight or probability (every comparison with NaN is false), and
	// non-finite or negative rates and shapes. Validate is called directly:
	// Generate hangs on some of them when Validate lets them through.
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name string
		set  func(*Config)
	}{
		{"ClassProbs{1.2,-0.2,0}", func(c *Config) { c.ClassProbs = [3]float64{1.2, -0.2, 0} }},
		{"ClassProbs{NaN,0,0}", func(c *Config) { c.ClassProbs = [3]float64{nan, 0, 0} }},
		{"ClassProbs{+Inf,-Inf,0}", func(c *Config) { c.ClassProbs = [3]float64{inf, -inf, 0} }},
		{"RetweetProb=NaN", func(c *Config) { c.RetweetProb = nan }},
		{"LabeledTweetFrac=NaN", func(c *Config) { c.LabeledTweetFrac = nan }},
		{"TweetsPerUserDay=+Inf", func(c *Config) { c.TweetsPerUserDay = inf }},
		{"TweetsPerUserDay=-1", func(c *Config) { c.TweetsPerUserDay = -1 }},
		{"TweetsPerUserDay=NaN", func(c *Config) { c.TweetsPerUserDay = nan }},
		{"BurstMultiplier=+Inf", func(c *Config) { c.BurstMultiplier = inf }},
		{"BurstMultiplier=-2", func(c *Config) { c.BurstMultiplier = -2 }},
		{"BurstWidth=NaN", func(c *Config) { c.BurstWidth = nan }},
		{"BurstWidth=-1", func(c *Config) { c.BurstWidth = -1 }},
		{"ZipfS=NaN", func(c *Config) { c.ZipfS = nan }},
		{"ZipfS=-1", func(c *Config) { c.ZipfS = -1 }},
		{"FrequencyDrift=+Inf", func(c *Config) { c.FrequencyDrift = inf }},
		{"FrequencyDrift=NaN", func(c *Config) { c.FrequencyDrift = nan }},
	} {
		cfg = DefaultConfig()
		tc.set(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted it", tc.name)
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
	z := newZipf(1.2, 100)
	counts := make([]int, 100)
	for i := 0; i < 10000; i++ {
		counts[z.sample(rng)]++
	}
	if counts[0] <= counts[50] {
		t.Fatalf("rank 0 (%d) not more frequent than rank 50 (%d)", counts[0], counts[50])
	}
	if counts[0] < 1000 {
		t.Fatalf("head rank too rare: %d", counts[0])
	}
}

// searchCum is the binary search cdf.rank stands for: the smallest i with
// cum[i] ≥ r, or len(cum)−1 when there is none.
func searchCum(cum []float64, r float64) int {
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] < r {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// checkRank compares c.rank with searchCum at 0, the largest draw below
// the total and the total itself, every bucket edge, every cumulative
// value, and the float64 neighbours of each.
func checkRank(t *testing.T, name string, c *cdf) {
	t.Helper()
	total := c.cum[len(c.cum)-1]
	points := []float64{0, total, math.Nextafter(1, 0) * total}
	for j := range c.guide {
		points = append(points, float64(j)/c.scale)
	}
	points = append(points, c.cum...)
	for _, p := range points {
		for _, r := range []float64{math.Nextafter(p, math.Inf(-1)), p, math.Nextafter(p, math.Inf(1))} {
			if r < 0 {
				continue
			}
			if got, want := c.rank(r), searchCum(c.cum, r); got != want {
				t.Fatalf("%s: rank(%v) = %d, binary search %d", name, r, got, want)
			}
		}
	}
}

// TestZipfRankMatchesBinarySearch holds the guided lookup to the binary
// search it replaced, at every word-list size a preset or its scaled
// variants use, and at n = 1.
func TestZipfRankMatchesBinarySearch(t *testing.T) {
	sizes := map[int]bool{1: true}
	for _, base := range []Config{DefaultConfig(), Prop30Config(), Prop37Config(), daemonTopicConfig()} {
		for _, f := range []int{1, 2, 4, 8, 16} {
			cfg := Scaled(base, f)
			sizes[cfg.PolarWordsPerClass] = true
			sizes[cfg.NeutralWords] = true
		}
	}
	for n := range sizes {
		for _, s := range []float64{1.1, 1.2} {
			z := newZipf(s, n)
			if z.scale != float64(len(z.guide)) || len(z.guide) < n || len(z.guide)&(len(z.guide)-1) != 0 {
				t.Fatalf("n=%d: %d buckets at scale %v, want a power of two ≥ n at scale = buckets", n, len(z.guide), z.scale)
			}
			checkRank(t, fmt.Sprintf("zipf n=%d s=%v", n, s), z)
		}
	}
}

// TestAuthorRankMatchesBinarySearch does the same for unnormalized
// cumulative activity tables like the daily author draw's, with repeated
// values from zero weights and ties, and for the same table re-indexed at
// a smaller size, as the day loop reuses it.
func TestAuthorRankMatchesBinarySearch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var c cdf
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(2000)
		if trial%2 == 1 {
			n = 1 + rng.Intn(40)
		}
		c.cum = c.cum[:0]
		total := 0.0
		for i := 0; i < n; i++ {
			switch w := rng.Float64(); {
			case i > 0 && w < 0.2: // a zero weight repeats the previous value
			case w < 0.4:
				total += float64(1 + rng.Intn(3))
			default:
				total += math.Min(math.Pow(rng.Float64(), -0.6), 12)
			}
			c.cum = append(c.cum, total)
		}
		if total == 0 {
			continue
		}
		c.index()
		checkRank(t, fmt.Sprintf("trial %d n=%d", trial, n), &c)
		for i := 0; i < 200; i++ {
			r := rng.Float64() * total
			if got, want := c.rank(r), searchCum(c.cum, r); got != want {
				t.Fatalf("trial %d: rank(%v) = %d, binary search %d", trial, r, got, want)
			}
		}
	}
	// A cumulative value one ulp below a bucket's edge, where bucket(r)
	// rounds up into that bucket: only the scan back finds it.
	for trial := 0; ; trial++ {
		if trial == 10000 {
			t.Fatal("no total found whose bucket(r) rounds past an edge")
		}
		total := 1 + rng.Float64()*20000
		scale := 8 / total
		x := math.Nextafter(7/scale, math.Inf(-1))
		if int(x*scale) < 7 {
			continue
		}
		c.cum = append(c.cum[:0], x, x, x, x, x, x, x, total)
		c.index()
		checkRank(t, fmt.Sprintf("rounding case total=%v", total), &c)
		break
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
	// Drift maps every sampled rank past the pinned head; a partial label
	// fraction draws a label coin per tweet that hides some labels.
	drift := DefaultConfig()
	drift.FrequencyDrift = 1.5
	partial := Scaled(Prop30Config(), 4)
	partial.LabeledTweetFrac = 0.6
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
		{"drift1.5", drift, 0x158babb6b8ba4022},
		{"prop30/4/labeled0.6", partial, 0xe1d072526bb58b2e},
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
