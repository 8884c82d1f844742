// Election: dynamic sentiment tracking with the online algorithm over an
// election-style stream (the Figures 11/12 scenario).
//
// It generates a synthetic Proposition-37-like corpus with a volume burst
// at "election day", processes it one day at a time through a Topic, and
// reports per-day volume, runtime and tweet-level accuracy, plus how the
// estimate of an opinion-flipping user (the paper's "Adam") evolves.
// Mid-stream the topic is snapshotted and restored into a second topic,
// demonstrating that a durable snapshot continues the stream with
// identical results (e.g. across a process restart).
//
//	go run ./examples/election
package main

import (
	"bytes"
	"fmt"
	"log"
	"math"
	"time"

	"triclust"
	"triclust/internal/eval"
	"triclust/internal/synth"
)

func main() {
	cfg := synth.DefaultConfig()
	cfg.Seed = 99
	cfg.NumUsers = 150
	cfg.Days = 24
	cfg.ElectionDay = 18
	cfg.BurstMultiplier = 5
	cfg.EvolveFrac = 0.08
	d, err := synth.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Pick an evolving user to follow.
	flipUser, flipDay := -1, -1
	for u, day := range d.EvolvingUsers() {
		if day > 4 && day < cfg.Days-4 {
			flipUser, flipDay = u, day
			break
		}
	}

	topic, err := triclust.NewTopic(d.Corpus.Users)
	if err != nil {
		log.Fatal(err)
	}

	// Snapshot the topic just before the election burst; a restored copy
	// replays the remaining days alongside the original.
	snapDay := cfg.ElectionDay - 1
	var snapshot bytes.Buffer
	var replayDays []int
	replayBatches := map[int][]triclust.Tweet{}
	replayResults := map[int]*triclust.StreamResult{}

	fmt.Println("day  n(t)  users  time      tweet-acc  tracked-user")
	var total time.Duration
	for day := 0; day < cfg.Days; day++ {
		// Slice keeps the day's retweet edges: same-day targets become
		// batch-local indices, targets posted on another day become -1.
		sub, global := d.Corpus.Slice(day, day+1)
		batch := sub.Tweets
		truth := make([]int, len(batch))
		for i, g := range global {
			truth[i] = d.TweetClass[g]
		}
		if day == snapDay {
			// Durable checkpoint right before the burst: the snapshot
			// captures vocabulary, prior, solver history and RNG position.
			if err := topic.Snapshot(&snapshot); err != nil {
				log.Fatal(err)
			}
		}
		start := time.Now()
		out, err := topic.Process(day, batch)
		if err != nil {
			log.Fatal(err)
		}
		if day >= snapDay {
			replayDays = append(replayDays, day)
			replayBatches[day] = batch
			replayResults[day] = out
		}
		if out.Skipped {
			// Quiet day: the stream records a well-defined no-op.
			fmt.Printf("%3d     –  (no tweets, skipped)\n", day)
			continue
		}
		el := time.Since(start)
		total += el

		pred := make([]int, len(batch))
		for i := range batch {
			pred[i] = out.TweetSentiments[i].Class
		}
		acc := eval.Accuracy(pred, truth)

		tracked := "–"
		if flipUser >= 0 {
			if est, ok := topic.UserEstimate(flipUser); ok {
				tracked = fmt.Sprintf("%s (%.2f)", triclust.ClassName(est.Class), est.Confidence)
			}
		}
		marker := " "
		switch day {
		case cfg.ElectionDay:
			marker = "← election burst"
		case flipDay:
			marker = "← tracked user flips stance"
		}
		fmt.Printf("%3d  %4d  %5d  %-8s  %8.1f%%  %-18s %s\n",
			day, len(batch), len(out.ActiveUsers), el.Round(time.Millisecond),
			acc*100, tracked, marker)
	}
	fmt.Printf("\ntotal stream time: %v\n", total.Round(time.Millisecond))
	if flipUser >= 0 {
		fmt.Printf("tracked user %d planted stance: %s before day %d, %s after\n",
			flipUser,
			triclust.ClassName(d.StanceAt(flipUser, flipDay-1)), flipDay,
			triclust.ClassName(d.StanceAt(flipUser, flipDay)))
	}

	// Restore the pre-burst checkpoint into a fresh topic (as a restarted
	// process would) and replay the remaining days: the continuation is
	// identical to the uninterrupted run.
	restored, err := triclust.Restore(&snapshot)
	if err != nil {
		log.Fatal(err)
	}
	var maxDiff float64
	for _, day := range replayDays {
		out, err := restored.Process(day, replayBatches[day])
		if err != nil {
			log.Fatal(err)
		}
		want := replayResults[day]
		for i, s := range out.TweetSentiments {
			if d := math.Abs(s.Confidence - want.TweetSentiments[i].Confidence); d > maxDiff {
				maxDiff = d
			}
			if s.Class != want.TweetSentiments[i].Class {
				log.Fatalf("day %d tweet %d: restored replay diverged", day, i)
			}
		}
	}
	fmt.Printf("snapshot at day %d restored and replayed %d days: max confidence drift %.1e\n",
		snapDay, len(replayDays), maxDiff)
}
