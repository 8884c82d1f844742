// Package synth generates synthetic topic-focused Twitter corpora with the
// statistical structure the paper's method exploits: class-conditional
// vocabularies with Zipfian frequencies, latent user stances, power-law
// user activity, retweet homophily, daily timestamps with an election-day
// volume burst, and new / evolving / disappearing users.
//
// It substitutes for the (non-redistributable) California-ballot corpus of
// §5; the presets Prop30Config and Prop37Config match Table 3's scale and
// class skew.
//
// Generation costs time linear in the tweets it draws, plus one pass over
// the users per day. Every draw costs O(1) expected: a word rank and a
// tweet's author are inverse-CDF lookups that start from a guide table
// (cdf). Tweets' tokens are cut from one shared arena, and the corpus is
// reserved up front from the expected tweet count.
package synth

import (
	"fmt"
	"math"
	"math/rand"

	"triclust/internal/lexicon"
	"triclust/internal/tgraph"
)

// Config controls corpus generation. Zero values are replaced by
// the documented defaults in Generate.
type Config struct {
	// Seed drives all randomness.
	Seed int64
	// NumUsers is the user population size m.
	NumUsers int
	// Days is the number of daily timestamps (0 .. Days−1).
	Days int
	// ElectionDay is the center of the volume burst (−1 disables it).
	ElectionDay int
	// BurstMultiplier scales tweet volume at the burst peak
	// (1 = no burst).
	BurstMultiplier float64
	// BurstWidth is the Gaussian σ of the burst in days.
	BurstWidth float64
	// TweetsPerUserDay is the mean number of tweets an average active
	// user posts per day.
	TweetsPerUserDay float64
	// ClassProbs is the user stance prior over {Pos, Neg, Neu}; it must
	// sum to ~1. The Neu entry may be 0.
	ClassProbs [3]float64
	// PolarWordsPerClass / NeutralWords size the planted vocabulary.
	PolarWordsPerClass int
	NeutralWords       int
	// WordsPerTweet is the mean tweet length in retained tokens.
	WordsPerTweet int
	// NeutralWordProb is the chance each token is topical-neutral.
	NeutralWordProb float64
	// OppositeWordProb is the chance a non-neutral token comes from a
	// different class's list (the "Monsanto is pure evil" noise).
	OppositeWordProb float64
	// TweetNoiseProb flips a tweet's sentiment away from its author's
	// stance.
	TweetNoiseProb float64
	// RetweetProb is the chance a tweet is a retweet of a recent tweet.
	RetweetProb float64
	// Homophily is the chance a retweet's source author shares the
	// retweeter's stance.
	Homophily float64
	// EvolveFrac is the fraction of users that flip stance once at a
	// uniform random day (user Adam of Figure 1).
	EvolveFrac float64
	// ChurnFrac is the fraction of users with a limited activity span
	// (they arrive late and/or disappear early), creating the
	// new/disappeared categories of §4.
	ChurnFrac float64
	// LabeledUserFrac / LabeledTweetFrac control ground-truth coverage
	// (Table 3: not every user has label information).
	LabeledUserFrac  float64
	LabeledTweetFrac float64
	// ZipfS is the Zipf exponent of within-class word frequencies.
	ZipfS float64
	// FrequencyDrift rotates each class's word-popularity ranking by
	// this many ranks per day: which words are *popular* changes over
	// time while their class membership (sentiment) stays fixed —
	// exactly Observation 1 of the paper ("the frequency distribution of
	// vocabularies changes over time; however, the sentiments of
	// vocabularies do not change"). Zero disables drift.
	FrequencyDrift float64
}

// Validate reports the first configuration problem.
func (c Config) Validate() error {
	for _, p := range c.ClassProbs {
		if !(p >= 0) || math.IsInf(p, 0) {
			return fmt.Errorf("synth: ClassProbs %v has a negative or non-finite entry", c.ClassProbs)
		}
	}
	sum := c.ClassProbs[0] + c.ClassProbs[1] + c.ClassProbs[2]
	if math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("synth: ClassProbs sum to %v", sum)
	}
	if c.NumUsers <= 0 || c.Days <= 0 {
		return fmt.Errorf("synth: NumUsers=%d Days=%d must be positive", c.NumUsers, c.Days)
	}
	if c.PolarWordsPerClass < 1 || c.NeutralWords < 1 {
		return fmt.Errorf("synth: PolarWordsPerClass=%d NeutralWords=%d must be positive", c.PolarWordsPerClass, c.NeutralWords)
	}
	for _, p := range []float64{c.NeutralWordProb, c.OppositeWordProb, c.TweetNoiseProb,
		c.RetweetProb, c.Homophily, c.EvolveFrac, c.ChurnFrac, c.LabeledUserFrac, c.LabeledTweetFrac} {
		if !(p >= 0 && p <= 1) {
			return fmt.Errorf("synth: probability %v out of [0,1]", p)
		}
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"TweetsPerUserDay", c.TweetsPerUserDay},
		{"BurstMultiplier", c.BurstMultiplier},
		{"BurstWidth", c.BurstWidth},
		{"ZipfS", c.ZipfS},
	} {
		if !(f.v >= 0) || math.IsInf(f.v, 0) {
			return fmt.Errorf("synth: %s=%v must be finite and non-negative", f.name, f.v)
		}
	}
	if math.IsNaN(c.FrequencyDrift) || math.IsInf(c.FrequencyDrift, 0) {
		return fmt.Errorf("synth: FrequencyDrift=%v must be finite", c.FrequencyDrift)
	}
	return nil
}

// DefaultConfig returns a small balanced corpus suitable for tests.
func DefaultConfig() Config {
	return Config{
		Seed:               1,
		NumUsers:           120,
		Days:               20,
		ElectionDay:        14,
		BurstMultiplier:    3,
		BurstWidth:         2,
		TweetsPerUserDay:   0.8,
		ClassProbs:         [3]float64{0.45, 0.35, 0.20},
		PolarWordsPerClass: 60,
		NeutralWords:       200,
		WordsPerTweet:      8,
		NeutralWordProb:    0.45,
		OppositeWordProb:   0.10,
		TweetNoiseProb:     0.08,
		RetweetProb:        0.30,
		Homophily:          0.85,
		EvolveFrac:         0.05,
		ChurnFrac:          0.30,
		LabeledUserFrac:    0.4,
		LabeledTweetFrac:   1.0,
		ZipfS:              1.1,
	}
}

// Prop30Config mirrors the scale and skew of the Proposition 30 dataset in
// Table 3: ≈13.8k labeled tweets at a 64/36 pos/neg split, ≈840 users of
// which ≈41% carry labels.
func Prop30Config() Config {
	c := DefaultConfig()
	c.Seed = 30
	c.NumUsers = 840
	c.Days = 120
	c.ElectionDay = 97 // Nov 6 relative to Aug 1
	c.BurstMultiplier = 6
	c.BurstWidth = 4
	c.TweetsPerUserDay = 0.14
	c.ClassProbs = [3]float64{0.52, 0.36, 0.12}
	c.PolarWordsPerClass = 300
	c.NeutralWords = 1200
	c.LabeledUserFrac = 0.41
	return c
}

// Prop37Config mirrors Proposition 37: ≈37.4k tweets at a 93/7 pos/neg
// split, ≈1.9k users, ≈19% labeled users.
func Prop37Config() Config {
	c := DefaultConfig()
	c.Seed = 37
	c.NumUsers = 1930
	c.Days = 120
	c.ElectionDay = 97
	c.BurstMultiplier = 6
	c.BurstWidth = 4
	c.TweetsPerUserDay = 0.16
	c.ClassProbs = [3]float64{0.88, 0.09, 0.03}
	c.TweetNoiseProb = 0.05
	c.PolarWordsPerClass = 350
	c.NeutralWords = 1500
	c.LabeledUserFrac = 0.19
	return c
}

// Scaled returns cfg with users, days, and vocabulary shrunk by factor
// (≥ 1), for fast benches while preserving the corpus shape. A disabled
// burst (ElectionDay −1) stays disabled.
func Scaled(cfg Config, factor int) Config {
	if factor <= 1 {
		return cfg
	}
	cfg.NumUsers = maxInt(20, cfg.NumUsers/factor)
	cfg.Days = maxInt(8, cfg.Days/factor)
	if cfg.ElectionDay >= 0 {
		cfg.ElectionDay = cfg.Days * 4 / 5
	}
	cfg.PolarWordsPerClass = maxInt(20, cfg.PolarWordsPerClass/factor)
	cfg.NeutralWords = maxInt(50, cfg.NeutralWords/factor)
	return cfg
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// userState is the latent ground truth of one user.
type userState struct {
	stance    int // initial stance
	evolveDay int // −1 or the day the stance flips
	evolvedTo int
	arrival   int // first active day
	departure int // last active day (inclusive)
	activity  float64
}

// Dataset is a generated corpus plus the planted ground truth the
// experiments score against.
type Dataset struct {
	Corpus *tgraph.Corpus
	Config Config
	// PosWords / NegWords / NeutralWords are the planted vocabularies in
	// within-class rank order (most frequent first).
	PosWords, NegWords, NeutWords []string
	// TweetClass is the planted class of every tweet (always set, even
	// when Corpus labels are hidden).
	TweetClass []int
	users      []userState
}

// seedWords gives the first planted words recognizable names so harness
// output reads like the paper's Table 2.
var posSeeds = []string{"yeson37", "labelgmo", "stopmonsanto", "carighttoknow", "health", "safe", "righttoknow", "labelit"}
var negSeeds = []string{"corn", "farmer", "noprop37", "crop", "million", "feed", "seed", "biotech"}

func wordList(class string, seeds []string, n int) []string {
	out := make([]string, 0, n)
	out = append(out, seeds...)
	for i := len(out); i < n; i++ {
		out = append(out, fmt.Sprintf("%s%03d", class, i))
	}
	return out[:n]
}

// Generate builds a dataset from cfg.
func Generate(cfg Config) (*Dataset, error) {
	if cfg.ZipfS == 0 {
		cfg.ZipfS = 1.1
	}
	if cfg.WordsPerTweet == 0 {
		cfg.WordsPerTweet = 8
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	d := &Dataset{
		Config:    cfg,
		PosWords:  wordList("yesw", posSeeds, cfg.PolarWordsPerClass),
		NegWords:  wordList("now", negSeeds, cfg.PolarWordsPerClass),
		NeutWords: wordList("topic", []string{"gmo", "prop37", "california", "ballot", "vote", "food", "election", "initiative"}, cfg.NeutralWords),
	}

	// ——— users ———
	d.users = make([]userState, cfg.NumUsers)
	for i := range d.users {
		u := &d.users[i]
		u.stance = sampleClass(rng, cfg.ClassProbs)
		u.evolveDay = -1
		if rng.Float64() < cfg.EvolveFrac && u.stance != lexicon.Neu {
			u.evolveDay = 1 + rng.Intn(maxInt(1, cfg.Days-1))
			u.evolvedTo = 1 - u.stance // Pos↔Neg flip
		}
		u.arrival, u.departure = 0, cfg.Days-1
		if rng.Float64() < cfg.ChurnFrac {
			span := 1 + rng.Intn(cfg.Days)
			u.arrival = rng.Intn(cfg.Days - span + 1)
			u.departure = u.arrival + span - 1
		}
		// Pareto-like activity (long tail of super-active users), capped
		// so one user cannot dominate a small corpus.
		u.activity = math.Min(math.Pow(rng.Float64(), -0.6), 12)
	}

	corpus := &tgraph.Corpus{Users: make([]tgraph.User, cfg.NumUsers)}
	for i := range corpus.Users {
		corpus.Users[i] = tgraph.User{Name: fmt.Sprintf("user%04d", i), Label: tgraph.NoLabel}
		if rng.Float64() < cfg.LabeledUserFrac {
			corpus.Users[i].Label = d.finalStance(i)
		}
	}

	// ——— tweets, day by day ———
	zipfPos := newZipf(cfg.ZipfS, len(d.PosWords))
	zipfNeg := newZipf(cfg.ZipfS, len(d.NegWords))
	zipfNeut := newZipf(cfg.ZipfS, len(d.NeutWords))

	n := d.expectedTweets()
	corpus.Tweets = make([]tgraph.Tweet, 0, n)
	d.TweetClass = make([]int, 0, n)
	var arena tokenArena

	// recent[t] holds tweet indices of day t for retweet sourcing.
	recent := make([][]int, cfg.Days)
	// Active users and their cumulative activity for sampling, refilled
	// each day.
	activeIdx := make([]int, 0, cfg.NumUsers)
	authors := cdf{cum: make([]float64, 0, cfg.NumUsers)}
	for t := 0; t < cfg.Days; t++ {
		activeIdx, authors.cum = activeIdx[:0], authors.cum[:0]
		var total float64
		for i := range d.users {
			if t >= d.users[i].arrival && t <= d.users[i].departure {
				activeIdx = append(activeIdx, i)
				total += d.users[i].activity
				authors.cum = append(authors.cum, total)
			}
		}
		if len(activeIdx) == 0 {
			continue
		}
		authors.index()
		mean := cfg.TweetsPerUserDay * float64(len(activeIdx)) * cfg.burst(t)
		count := samplePoisson(rng, mean)
		for c := 0; c < count; c++ {
			author := activeIdx[authors.sample(rng)]
			stance := d.StanceAt(author, t)
			class := stance
			if rng.Float64() < cfg.TweetNoiseProb {
				class = (class + 1 + rng.Intn(2)) % 3
			}

			tw := tgraph.Tweet{User: author, Time: t, RetweetOf: -1, Label: tgraph.NoLabel}
			if rng.Float64() < cfg.RetweetProb {
				if src := d.pickRetweetSource(rng, recent, t, stance, cfg.Homophily); src >= 0 {
					tw.RetweetOf = src
					class = d.TweetClass[src]
				}
			}
			if tw.RetweetOf >= 0 {
				// Retweets reuse (a sample of) the source's tokens.
				srcTokens := corpus.Tweets[tw.RetweetOf].Tokens
				tw.Tokens = append(arena.take(len(srcTokens)), srcTokens...)
			} else {
				tw.Tokens = d.sampleTokens(rng, cfg, class, t, zipfPos, zipfNeg, zipfNeut, &arena)
			}
			if rng.Float64() < cfg.LabeledTweetFrac {
				tw.Label = class
			}
			idx := len(corpus.Tweets)
			corpus.Tweets = append(corpus.Tweets, tw)
			d.TweetClass = append(d.TweetClass, class)
			recent[t] = append(recent[t], idx)
		}
	}

	d.Corpus = corpus
	if err := corpus.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// burst is day t's volume multiplier: a Gaussian bump of height
// BurstMultiplier centred on ElectionDay, or 1 when the burst is off.
func (c Config) burst(t int) float64 {
	if c.ElectionDay < 0 || c.BurstMultiplier <= 1 || c.BurstWidth <= 0 {
		return 1
	}
	dd := float64(t - c.ElectionDay)
	return 1 + (c.BurstMultiplier-1)*math.Exp(-dd*dd/(2*c.BurstWidth*c.BurstWidth))
}

// maxReserve caps expectedTweets, so an extreme config reserves a bounded
// corpus and grows it by appending like any other.
const maxReserve = 1 << 20

// expectedTweets is the capacity Generate reserves for the corpus: the sum
// of the days' Poisson means, from the same active-user counts and bursts
// the day loop uses, plus four standard deviations. It draws nothing and
// is only a hint: a corpus that outgrows it appends as usual.
func (d *Dataset) expectedTweets() int {
	cfg := d.Config
	// Before the running sum, active[t] is the users arriving on day t
	// minus those who left after day t−1.
	active := make([]int, cfg.Days+1)
	for _, u := range d.users {
		active[u.arrival]++
		active[u.departure+1]--
	}
	var mean float64
	for t := 0; t < cfg.Days; t++ {
		if t > 0 {
			active[t] += active[t-1]
		}
		mean += cfg.TweetsPerUserDay * float64(active[t]) * cfg.burst(t)
	}
	hint := mean + 4*math.Sqrt(mean) + 16
	if !(hint < maxReserve) {
		return maxReserve
	}
	return int(hint)
}

// tokenArena hands out tweets' token slices from shared chunks, so a
// corpus costs one allocation per chunk rather than one per tweet.
type tokenArena struct {
	free []string
}

// arenaChunk is the number of tokens in one arena chunk.
const arenaChunk = 1 << 13

// take returns an empty slice with capacity n cut from the arena. Its
// capacity is capped, so no two slices share an element and an append
// past n reallocates.
func (a *tokenArena) take(n int) []string {
	if n > len(a.free) {
		a.free = make([]string, max(n, arenaChunk))
	}
	out := a.free[:0:n]
	a.free = a.free[n:]
	return out
}

// sampleTokens draws a tweet's tokens given its planted class and day.
// FrequencyDrift rotates the Zipf ranking so word *popularity* (not word
// sentiment) shifts over time, reproducing Observation 1 / Figure 4. The
// named seed words (the head ranks) are pinned: the paper's Table 2 notes
// that the top hashtags stay popular through the whole collection period.
func (d *Dataset) sampleTokens(rng *rand.Rand, cfg Config, class, day int, zp, zn, zu *cdf, a *tokenArena) []string {
	const pinnedHead = 8
	drift := func(rank, size int) int {
		if cfg.FrequencyDrift <= 0 || rank < pinnedHead || size <= pinnedHead {
			return rank
		}
		span := size - pinnedHead
		shifted := (rank - pinnedHead + int(cfg.FrequencyDrift*float64(day))) % span
		return pinnedHead + shifted
	}
	n := 1 + samplePoisson(rng, float64(cfg.WordsPerTweet-1))
	out := a.take(n)
	for w := 0; w < n; w++ {
		if class == lexicon.Neu || rng.Float64() < cfg.NeutralWordProb {
			out = append(out, d.NeutWords[drift(zu.sample(rng), len(d.NeutWords))])
			continue
		}
		c := class
		if rng.Float64() < cfg.OppositeWordProb {
			c = 1 - c
		}
		if c == lexicon.Pos {
			out = append(out, d.PosWords[drift(zp.sample(rng), len(d.PosWords))])
		} else {
			out = append(out, d.NegWords[drift(zn.sample(rng), len(d.NegWords))])
		}
	}
	return out
}

// pickRetweetSource picks a tweet from the last two days whose author's
// stance matches with probability homophily. The pool is day t's tweets
// followed by day t−1's, indexed in place.
func (d *Dataset) pickRetweetSource(rng *rand.Rand, recent [][]int, t, stance int, homophily float64) int {
	today := recent[t]
	var yesterday []int
	if t > 0 {
		yesterday = recent[t-1]
	}
	n := len(today) + len(yesterday)
	if n == 0 {
		return -1
	}
	at := func(i int) int {
		if i < len(today) {
			return today[i]
		}
		return yesterday[i-len(today)]
	}
	wantSame := rng.Float64() < homophily
	// Rejection-sample a few times, then fall back to any.
	for try := 0; try < 8; try++ {
		cand := at(rng.Intn(n))
		if (d.TweetClass[cand] == stance) == wantSame {
			return cand
		}
	}
	return at(rng.Intn(n))
}

// StanceAt returns user u's planted stance on day t.
func (d *Dataset) StanceAt(u, t int) int {
	s := d.users[u]
	if s.evolveDay >= 0 && t >= s.evolveDay {
		return s.evolvedTo
	}
	return s.stance
}

// finalStance returns the user's stance at the end of the period (used for
// the static user label, matching how the paper's labels were assigned).
func (d *Dataset) finalStance(u int) int {
	return d.StanceAt(u, d.Config.Days-1)
}

// UserStancesAt returns every user's planted stance on day t.
func (d *Dataset) UserStancesAt(t int) []int {
	out := make([]int, len(d.users))
	for i := range d.users {
		out[i] = d.StanceAt(i, t)
	}
	return out
}

// EvolvingUsers returns the indices of users whose stance flips, with
// their flip day.
func (d *Dataset) EvolvingUsers() map[int]int {
	out := map[int]int{}
	for i, u := range d.users {
		if u.evolveDay >= 0 {
			out[i] = u.evolveDay
		}
	}
	return out
}

// PlantedLexicon builds a sentiment lexicon covering the top coverage
// fraction of each polar word list, with noise fraction of the listed
// words assigned to the wrong class — simulating the automatically built
// (imperfect) "Yes"/"No" lists the paper seeds Sf0 from.
func (d *Dataset) PlantedLexicon(coverage, noise float64, seed int64) *lexicon.Lexicon {
	rng := rand.New(rand.NewSource(seed))
	out := lexicon.New()
	add := func(words []string, class int) {
		n := int(coverage * float64(len(words)))
		for _, w := range words[:n] {
			c := class
			if rng.Float64() < noise {
				c = 1 - c
			}
			out.Set(w, c)
		}
	}
	add(d.PosWords, lexicon.Pos)
	add(d.NegWords, lexicon.Neg)
	return out
}

// ——— small samplers ———

func sampleClass(rng *rand.Rand, probs [3]float64) int {
	r := rng.Float64()
	if r < probs[0] {
		return 0
	}
	if r < probs[0]+probs[1] {
		return 1
	}
	return 2
}

// samplePoisson draws from Poisson(mean) via Knuth for small means and a
// normal approximation for large ones.
func samplePoisson(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		v := mean + math.Sqrt(mean)*rng.NormFloat64()
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// cdf draws an index with probability proportional to its weight, by
// inverse transform over cum, the running sums of the weights
// (non-decreasing; the last is the total, which must be positive). A guide
// table (Chen & Asau's indexed search) makes a lookup O(1) expected:
// guide[j] is the smallest index whose cumulative weight reaches the lower
// edge of bucket j, where the len(guide) buckets split [0, total) evenly.
type cdf struct {
	cum   []float64
	guide []int
	scale float64 // buckets per unit of weight: len(guide)/total
}

// index rebuilds the guide table for the current cum, with a power of two
// ≥ len(cum) buckets. When the total is 1, as for a Zipf table, bucket
// edges and bucket(r) are exact, so a lookup only scans forward.
func (c *cdf) index() {
	n := len(c.cum)
	m := 1
	for m < n {
		m <<= 1
	}
	if cap(c.guide) < m {
		c.guide = make([]int, m)
	}
	c.guide = c.guide[:m]
	c.scale = float64(m) / c.cum[n-1]
	i := 0
	for j := range c.guide {
		edge := float64(j) / c.scale
		for i < n-1 && c.cum[i] < edge {
			i++
		}
		c.guide[j] = i
	}
}

// sample draws an index: one rng.Float64() scaled to the total.
func (c *cdf) sample(rng *rand.Rand) int {
	return c.rank(rng.Float64() * c.cum[len(c.cum)-1])
}

// rank returns the smallest i with cum[i] ≥ r, or len(cum)−1 when there is
// none: the index a binary search over cum returns. It starts at r's guide
// entry; the scan back covers an unnormalized total, where bucket(r) can
// round past r's true bucket.
func (c *cdf) rank(r float64) int {
	b := int(r * c.scale)
	if b >= len(c.guide) {
		b = len(c.guide) - 1
	}
	i := c.guide[b]
	for i > 0 && c.cum[i-1] >= r {
		i--
	}
	for i < len(c.cum)-1 && c.cum[i] < r {
		i++
	}
	return i
}

// newZipf returns the table that draws ranks 0..n−1 with
// P(r) ∝ 1/(r+1)^s.
func newZipf(s float64, n int) *cdf {
	cum := make([]float64, n)
	var total float64
	for r := 0; r < n; r++ {
		total += math.Pow(float64(r+1), -s)
		cum[r] = total
	}
	for r := range cum {
		cum[r] /= total
	}
	c := &cdf{cum: cum}
	c.index()
	return c
}
