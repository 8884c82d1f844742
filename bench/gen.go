package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"triclust"
	"triclust/internal/codec"
	"triclust/internal/lexicon"
	"triclust/internal/synth"
	"triclust/internal/tgraph"
)

// Every workload's inputs derive from the one -seed argument; the
// program under test only ever sees what is generated here.

// plantedCoverage and plantedNoise shape the lexicon the library
// workloads seed the prior from: half of each polar word list, a tenth
// of it on the wrong side — the imperfect automatically built lists the
// paper starts from.
const (
	plantedCoverage = 0.5
	plantedNoise    = 0.1
)

// streamInput is a corpus cut into the batches of an online stream.
type streamInput struct {
	users   []triclust.User
	lex     *triclust.Lexicon
	times   []int
	batches [][]triclust.Tweet
	// truth[b][i] is the planted class of tweet i of batch b.
	truth [][]int
	// userTruth[u] is user u's planted final stance.
	userTruth []int
	tweets    int
}

// genOnlineReplay builds the online_replay stream: the Proposition 37
// preset in daily batches, tweets as raw text so the tokenizer works.
// Retweet edges inside a batch keep their (remapped) target; edges that
// cross batches cannot be expressed in a batch and are dropped.
func genOnlineReplay(seed int64, scale int) (*streamInput, error) {
	cfg := synth.Scaled(synth.Prop37Config(), scale)
	cfg.Seed = seed + 37
	ds, err := synth.Generate(cfg)
	if err != nil {
		return nil, err
	}
	in := &streamInput{
		users:     ds.Corpus.Users,
		lex:       ds.PlantedLexicon(plantedCoverage, plantedNoise, cfg.Seed),
		userTruth: ds.UserStancesAt(cfg.Days - 1),
	}
	byDay := make([][]triclust.Tweet, cfg.Days)
	truth := make([][]int, cfg.Days)
	local := make([]int, len(ds.Corpus.Tweets))
	for i, tw := range ds.Corpus.Tweets {
		d := tw.Time
		local[i] = len(byDay[d])
		out := triclust.Tweet{
			Text: strings.Join(tw.Tokens, " "), User: tw.User, Time: d,
			RetweetOf: -1, Label: triclust.NoLabel,
		}
		if r := tw.RetweetOf; r >= 0 && ds.Corpus.Tweets[r].Time == d {
			out.RetweetOf = local[r]
		}
		byDay[d] = append(byDay[d], out)
		truth[d] = append(truth[d], ds.TweetClass[i])
	}
	for d := range byDay {
		if len(byDay[d]) == 0 {
			continue
		}
		in.times = append(in.times, d)
		in.batches = append(in.batches, byDay[d])
		in.truth = append(in.truth, truth[d])
		in.tweets += len(byDay[d])
	}
	return in, nil
}

// refitInput is the offline_refit workload: the growing prefixes of one
// pre-tokenized corpus, each refitted from scratch.
type refitInput struct {
	lex *triclust.Lexicon
	// prefixes[i] holds every tweet up to the i-th refit day.
	prefixes []*triclust.Corpus
	// truth is the planted class of every tweet of the last prefix (the
	// whole corpus); userTruth the users' final stance.
	truth     []int
	userTruth []int
	tweets    int // summed over prefixes: tweets fitted per pass
}

// refitEvery is the spacing, in days, of the full-batch refits.
const refitEvery = 8

func genOfflineRefit(seed int64, scale int) (*refitInput, error) {
	cfg := synth.Scaled(synth.Prop30Config(), scale)
	cfg.Seed = seed + 30
	ds, err := synth.Generate(cfg)
	if err != nil {
		return nil, err
	}
	in := &refitInput{
		lex:       ds.PlantedLexicon(plantedCoverage, plantedNoise, cfg.Seed),
		truth:     ds.TweetClass,
		userTruth: ds.UserStancesAt(cfg.Days - 1),
	}
	for d := refitEvery - 1; d < cfg.Days; d += refitEvery {
		day := d
		if d+refitEvery >= cfg.Days {
			day = cfg.Days - 1 // the last refit sees the whole corpus
		}
		// Ground truth stays on the benchmark's side: labels are stripped.
		c, _ := ds.Corpus.Slice(0, day+1)
		for i := range c.Tweets {
			c.Tweets[i].Label = triclust.NoLabel
		}
		users := make([]triclust.User, len(c.Users))
		for i, u := range c.Users {
			users[i] = triclust.User{Name: u.Name, Label: triclust.NoLabel}
		}
		c.Users = users
		if len(c.Tweets) == 0 {
			continue
		}
		in.prefixes = append(in.prefixes, c)
		in.tweets += len(c.Tweets)
	}
	if len(in.prefixes) == 0 {
		return nil, fmt.Errorf("offline_refit: no refit day in %d days", cfg.Days)
	}
	return in, nil
}

// topicInput is one daemon topic's traffic, encoded once so that no
// client-side encoding is inside a timed window.
type topicInput struct {
	name      string
	create    []byte   // POST /v1/topics body
	vocab     []byte   // POST …/vocab body: every word, frozen
	warm      [][]byte // un-timed batches sent before the window
	warmN     []int
	bodies    [][]byte // timed batch request bodies, in order
	batches   [][]tgraph.Tweet
	times     []int // batch timestamps; warm batches use 0..len(warm)-1
	warmTw    [][]tgraph.Tweet
	truth     [][]int // planted class per tweet of each timed batch
	userTruth []int
	users     int
	// userNames and vocabDocs are what create and vocab carry, kept so
	// the traced run can build the same topic in process.
	userNames []string
	vocabDocs [][]string
	tweets    int // tweets in the timed batches
}

// daemonShape says how a daemon workload cuts its corpora.
type daemonShape struct {
	topics, users   int
	perBatch        int
	batchesPerTopic int
	warmBatches     int  // per topic, un-timed, each one tweet per user
	maxIter         int  // the topics' solver sweep cap (0: the daemon's default)
	rawText         bool // JSON bodies with text (server tokenizes) vs binary frames with tokens
}

// builtinHead renames the most frequent planted polar words to the words
// of the built-in lexicon: the daemon offers no way to upload a lexicon,
// so this is how its topics get a prior that covers the head of the
// vocabulary, as the planted lexicon does for the library workloads.
func builtinHead(ds *synth.Dataset) map[string]string {
	rename := map[string]string{}
	lex := lexicon.Builtin()
	for class, words := range map[int][]string{lexicon.Pos: ds.PosWords, lexicon.Neg: ds.NegWords} {
		head := lex.Words(class)
		for i := 0; i < len(head) && i < len(words); i++ {
			rename[words[i]] = head[i]
		}
	}
	return rename
}

func genDaemonTopics(seed int64, sh daemonShape, prefix string) ([]*topicInput, error) {
	out := make([]*topicInput, sh.topics)
	for t := range out {
		need := sh.perBatch * sh.batchesPerTopic
		cfg := synth.DefaultConfig()
		cfg.Seed = seed + int64(t)
		cfg.NumUsers = sh.users
		// DefaultConfig's 20 days at the volume that yields the tweets
		// this stream needs, with headroom for the Poisson draw.
		cfg.ElectionDay = -1
		cfg.TweetsPerUserDay = 1.15 * float64(need) / float64(cfg.NumUsers*cfg.Days) / 0.85
		ds, err := synth.Generate(cfg)
		if err != nil {
			return nil, err
		}
		if len(ds.Corpus.Tweets) < need {
			return nil, fmt.Errorf("topic %d: generated %d tweets, need %d", t, len(ds.Corpus.Tweets), need)
		}
		tp, err := buildTopicInput(fmt.Sprintf("%s-%d", prefix, t), ds, sh)
		if err != nil {
			return nil, err
		}
		out[t] = tp
	}
	return out, nil
}

func buildTopicInput(name string, ds *synth.Dataset, sh daemonShape) (*topicInput, error) {
	rename := builtinHead(ds)
	word := func(w string) string {
		if r, ok := rename[w]; ok {
			return r
		}
		return w
	}
	tp := &topicInput{name: name, users: sh.users, userTruth: ds.UserStancesAt(ds.Config.Days - 1)}

	names := make([]string, sh.users)
	for i, u := range ds.Corpus.Users {
		names[i] = u.Name
	}
	var err error
	// min_df 1: the warm-up documents below list every word exactly once.
	options := map[string]any{"min_df": 1}
	if sh.maxIter > 0 {
		options["max_iter"] = sh.maxIter
	}
	create := map[string]any{"name": name, "users": names, "options": options}
	if tp.create, err = json.Marshal(create); err != nil {
		return nil, err
	}

	seen := map[string]bool{}
	for _, tw := range ds.Corpus.Tweets {
		for _, tok := range tw.Tokens {
			seen[word(tok)] = true
		}
	}
	words := make([]string, 0, len(seen))
	for w := range seen {
		words = append(words, w)
	}
	sort.Strings(words)
	var docs [][]string
	for off := 0; off < len(words); off += 64 {
		docs = append(docs, words[off:min(off+64, len(words))])
	}
	tp.userNames, tp.vocabDocs = names, docs
	if tp.vocab, err = json.Marshal(map[string]any{"docs": docs, "freeze": true}); err != nil {
		return nil, err
	}

	encode := func(ts int, tweets []tgraph.Tweet) ([]byte, error) {
		if sh.rawText {
			return jsonBatchBody(ts, tweets)
		}
		return codec.EncodeBatchRequest(ts, tweets)
	}
	mk := func(tokens []string, user, ts int) tgraph.Tweet {
		tw := tgraph.Tweet{User: user, Time: ts, RetweetOf: -1, Label: tgraph.NoLabel}
		toks := make([]string, len(tokens))
		for i, t := range tokens {
			toks[i] = word(t)
		}
		if sh.rawText {
			tw.Text = strings.Join(toks, " ")
		} else {
			tw.Tokens = toks
		}
		return tw
	}

	// Warm-up batches: every user tweets once in each (one of their own
	// tweets where they have any), so every user has an estimate before a
	// timed read asks for it, and the temporal window is full when the
	// timed window opens.
	src := ds.Corpus.Tweets
	own := make([][]int, sh.users)
	for i, tw := range src {
		own[tw.User] = append(own[tw.User], i)
	}
	for b := 0; b < sh.warmBatches; b++ {
		tweets := make([]tgraph.Tweet, sh.users)
		for u := range tweets {
			from := (u*31 + b) % len(src)
			if n := len(own[u]); n > 0 {
				from = own[u][b%n]
			}
			tweets[u] = mk(src[from].Tokens, u, b)
		}
		body, err := encode(b, tweets)
		if err != nil {
			return nil, err
		}
		tp.warm = append(tp.warm, body)
		tp.warmTw = append(tp.warmTw, tweets)
		tp.warmN = append(tp.warmN, len(tweets))
	}

	// Timed batches: the corpus in time order, perBatch tweets at a time.
	// Retweet edges are left out: re-chunking breaks their indices.
	pos := 0
	for b := 0; b < sh.batchesPerTopic; b++ {
		ts := sh.warmBatches + b
		tweets := make([]tgraph.Tweet, sh.perBatch)
		truth := make([]int, sh.perBatch)
		for j := range tweets {
			tweets[j] = mk(src[pos].Tokens, src[pos].User, ts)
			truth[j] = ds.TweetClass[pos]
			pos++
		}
		body, err := encode(ts, tweets)
		if err != nil {
			return nil, err
		}
		tp.bodies = append(tp.bodies, body)
		tp.batches = append(tp.batches, tweets)
		tp.times = append(tp.times, ts)
		tp.truth = append(tp.truth, truth)
		tp.tweets += len(tweets)
	}
	return tp, nil
}

// jsonTweet and jsonBatch mirror the daemon's batch request schema. The
// traced run also decodes bodies back into them: a stated proxy for the
// daemon's own JSON decode, whose types are not importable.
type jsonTweet struct {
	Text   string   `json:"text,omitempty"`
	Tokens []string `json:"tokens,omitempty"`
	User   int      `json:"user"`
	Time   *int     `json:"time,omitempty"`
}

type jsonBatch struct {
	Time   int         `json:"time"`
	Tweets []jsonTweet `json:"tweets"`
}

func jsonBatchBody(ts int, tweets []tgraph.Tweet) ([]byte, error) {
	req := jsonBatch{Time: ts, Tweets: make([]jsonTweet, len(tweets))}
	for i, tw := range tweets {
		t := tw.Time
		req.Tweets[i] = jsonTweet{Text: tw.Text, Tokens: tw.Tokens, User: tw.User, Time: &t}
	}
	return json.Marshal(req)
}
