// The benchmarks live in the external test package because the corpus
// generator they draw from imports tgraph.
package tgraph_test

import (
	"testing"

	"triclust/internal/synth"
	"triclust/internal/text"
	"triclust/internal/tgraph"
)

// generate returns the corpus of cfg at the given seed.
func generate(b *testing.B, cfg synth.Config, seed int64) *tgraph.Corpus {
	cfg.Seed = seed
	ds, err := synth.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return ds.Corpus
}

// BenchmarkCorpusSlice cuts a Prop30 corpus (the offline_refit benchmark
// workload's at its seed 1) into the growing every-8-days prefixes
// offline_refit refits, the last one the whole corpus.
func BenchmarkCorpusSlice(b *testing.B) {
	c := generate(b, synth.Prop30Config(), 31)
	_, hi, _ := c.TimeRange()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for d := 7; d <= hi; d += 8 {
			day := d
			if d+8 > hi {
				day = hi
			}
			if sub, _ := c.Slice(0, day+1); len(sub.Tweets) == 0 {
				b.Fatal("empty prefix")
			}
		}
	}
}

// dailyBatches splits c into one corpus per day in the shape a streaming
// session hands its builder: the day's tweets only, retweets remapped
// inside the batch (a target on another day becomes −1), and the whole
// user universe. Days without tweets are left out.
func dailyBatches(c *tgraph.Corpus) []*tgraph.Corpus {
	_, hi, _ := c.TimeRange()
	byDay := make([]*tgraph.Corpus, hi+1)
	for d := range byDay {
		byDay[d] = &tgraph.Corpus{Users: c.Users}
	}
	local := make([]int, len(c.Tweets))
	for i, tw := range c.Tweets {
		batch := byDay[tw.Time]
		local[i] = len(batch.Tweets)
		if r := tw.RetweetOf; r >= 0 {
			tw.RetweetOf = -1
			if c.Tweets[r].Time == tw.Time {
				tw.RetweetOf = local[r]
			}
		}
		batch.Tweets = append(batch.Tweets, tw)
	}
	out := byDay[:0]
	for _, batch := range byDay {
		if len(batch.Tweets) > 0 {
			out = append(out, batch)
		}
	}
	return out
}

// BenchmarkSnapshotBuilderWindow streams the daily batches of a Prop37
// corpus (the online_replay benchmark workload's at its seed 1) through
// one warmed-up builder, each batch cut over its whole time span as
// engine.Session does: window cut, user compaction and graph construction
// per batch, in a long-lived session's steady state.
func BenchmarkSnapshotBuilderWindow(b *testing.B) {
	c := generate(b, synth.Prop37Config(), 38)
	batches := dailyBatches(c)
	vocab := text.BuildVocabulary(c.TokenDocs(), 2)
	var sb tgraph.SnapshotBuilder
	pass := func() {
		for _, batch := range batches {
			t := batch.Tweets[0].Time
			sb.Build(batch, t, t+1, vocab, text.TFIDF)
		}
	}
	pass()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
}
