package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"triclust"
	"triclust/internal/eval"
)

// recoveryRepeats is how many times a library pass restores its
// snapshot; the pass's recovery sample is the quietest of them, because
// a single restore lasts a millisecond or two.
const recoveryRepeats = 5

// setupRepeats is how many times in a row a pass sets itself up.
const setupRepeats = 2

// timedSetup sets a pass up from nothing setupRepeats times in a row,
// tearing down all but the last, and returns the last with the quietest
// set-up's time. Set-up is the benchmark generating its inputs, almost
// all of it allocation over a small live heap, and two things other than
// the work done decide how long that takes here (CALIBRATION.md, section
// 3): the collector, which runs one cycle more or less inside a set-up
// and so makes its time bimodal, and first-touch page faults, 2–5 µs
// each on this machine, on memory the runtime gave back to the system
// during the pass before. So the heap is collected before every set-up
// and the collector paused while the clock runs, and the second set-up
// of a pair runs on pages the first has faulted in.
func timedSetup[T any](setup func() (T, error), teardown func(T)) (T, int64, error) {
	var made T
	quietest := int64(math.MaxInt64)
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			teardown(made)
		}
		runtime.GC()
		gc := debug.SetGCPercent(-1)
		t0 := time.Now()
		m, err := setup()
		took := int64(time.Since(t0))
		debug.SetGCPercent(gc)
		if err != nil {
			return made, 0, fmt.Errorf("set-up: %w", err)
		}
		made, quietest = m, min(quietest, took)
	}
	return made, quietest, nil
}

// onlinePass generates the stream, then streams it through a fresh
// topic, one Topic.Process per daily batch, then snapshots, restores and
// reads. It returns the stream it generated with what it measured.
func onlinePass(o options) (*streamInput, *passData, error) {
	in, setupNs, err := timedSetup(
		func() (*streamInput, error) { return genOnlineReplay(o.seed, o.scale) },
		func(*streamInput) {})
	if err != nil {
		return nil, nil, err
	}
	p, err := streamPass(in)
	if err != nil {
		return nil, nil, err
	}
	p.setupNs = setupNs
	return in, p, nil
}

func streamPass(in *streamInput) (*passData, error) {
	runtime.GC()
	tp, err := triclust.NewTopic(in.users, triclust.WithLexicon(in.lex))
	if err != nil {
		return nil, err
	}
	p := &passData{commitNs: make([]int64, 0, len(in.batches))}
	pred := make([]int, 0, in.tweets)
	truth := make([]int, 0, in.tweets)
	cpu0 := selfCPU()
	for b, batch := range in.batches {
		t0 := time.Now()
		out, err := tp.Process(in.times[b], batch)
		d := time.Since(t0)
		p.attempted++
		if err != nil {
			return nil, fmt.Errorf("batch %d: %w", b, err)
		}
		p.commitNs = append(p.commitNs, int64(d))
		p.windowNs += int64(d)
		for _, s := range out.TweetSentiments {
			pred = append(pred, s.Class)
		}
		truth = append(truth, in.truth[b]...)
		p.exact.iters += out.Iterations
		p.exact.tweetSweeps += out.Iterations * len(batch)
		if out.Converged {
			p.exact.converged++
		}
		p.exact.objective = out.Raw.FinalLoss().Total
	}
	p.cpuNs = int64(selfCPU() - cpu0)
	p.exact.commits = len(in.batches)
	p.exact.tweets = in.tweets
	p.exact.tweetAcc = eval.Accuracy(pred, truth)
	p.exact.userAcc = userAccuracy(in.userTruth, tp.UserEstimate)

	var snap bytes.Buffer
	if err := tp.Snapshot(&snap); err != nil {
		return nil, err
	}
	p.exact.stateBytes = int64(snap.Len())
	probe := firstKnownUser(len(in.users), tp.UserEstimate)
	want, _ := tp.UserEstimate(probe)
	err = timeRestores(p, snap.Bytes(), func(back *triclust.Topic) bool {
		got, ok := back.UserEstimate(probe)
		return ok && got == want
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// userAccuracy scores the final estimates of the users that have one
// against their planted final stance.
func userAccuracy(truth []int, estimate func(int) (triclust.Sentiment, bool)) float64 {
	pred := make([]int, len(truth))
	known := make([]int, len(truth))
	for u := range truth {
		known[u] = triclust.NoLabel
		if s, ok := estimate(u); ok {
			pred[u], known[u] = s.Class, truth[u]
		}
	}
	return eval.Accuracy(pred, known)
}

func firstKnownUser(n int, estimate func(int) (triclust.Sentiment, bool)) int {
	for u := 0; u < n; u++ {
		if _, ok := estimate(u); ok {
			return u
		}
	}
	return 0
}

// refitTopic is the topic the offline workload fits: the paper's
// offline configuration, seeded from the planted lexicon.
func refitTopic(in *refitInput) (*triclust.Topic, error) {
	return triclust.NewTopic(nil,
		triclust.WithLexicon(in.lex),
		triclust.WithSolverConfig(triclust.OnlineConfig{Config: triclust.DefaultConfig()}))
}

// refitProbe is how many documents the offline recovery check predicts.
const refitProbe = 32

// refitPass generates the corpus and its prefixes, then refits every
// prefix from scratch with FitCorpus, the paper's full-batch alternative
// to the online stream.
func refitPass(o options) (*refitInput, *passData, error) {
	in, setupNs, err := timedSetup(
		func() (*refitInput, error) { return genOfflineRefit(o.seed, o.scale) },
		func(*refitInput) {})
	if err != nil {
		return nil, nil, err
	}
	p, err := refitPrefixes(in)
	if err != nil {
		return nil, nil, err
	}
	p.setupNs = setupNs
	return in, p, nil
}

func refitPrefixes(in *refitInput) (*passData, error) {
	runtime.GC()
	p := &passData{commitNs: make([]int64, 0, len(in.prefixes))}
	var last *triclust.Topic
	var res *triclust.Result
	cpu0 := selfCPU()
	for i, c := range in.prefixes {
		tp, err := refitTopic(in)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		r, err := tp.FitCorpus(c)
		d := time.Since(t0)
		p.attempted++
		if err != nil {
			return nil, fmt.Errorf("fit %d: %w", i, err)
		}
		p.commitNs = append(p.commitNs, int64(d))
		p.windowNs += int64(d)
		p.exact.iters += r.Iterations
		p.exact.tweetSweeps += r.Iterations * len(c.Tweets)
		if r.Converged {
			p.exact.converged++
		}
		last, res = tp, r
	}
	p.cpuNs = int64(selfCPU() - cpu0)
	p.exact.commits = len(in.prefixes)
	p.exact.tweets = in.tweets
	p.exact.objective = res.Raw.FinalLoss().Total

	whole := in.prefixes[len(in.prefixes)-1]
	pred := make([]int, len(res.TweetSentiments))
	for i, s := range res.TweetSentiments {
		pred[i] = s.Class
	}
	p.exact.tweetAcc = eval.Accuracy(pred, in.truth[:len(pred)])
	active := make([]bool, len(whole.Users))
	for _, tw := range whole.Tweets {
		active[tw.User] = true
	}
	p.exact.userAcc = userAccuracy(in.userTruth, func(u int) (triclust.Sentiment, bool) {
		return res.UserSentiments[u], active[u]
	})

	// Recovery: the persisted model restored and answering predictions.
	var snap bytes.Buffer
	if err := last.Snapshot(&snap); err != nil {
		return nil, err
	}
	p.exact.stateBytes = int64(snap.Len())
	docs := make([][]string, 0, refitProbe)
	for i := 0; i < len(whole.Tweets) && i < refitProbe; i++ {
		docs = append(docs, whole.Tweets[i].Tokens)
	}
	want, err := last.PredictTokenized(docs)
	if err != nil {
		return nil, err
	}
	err = timeRestores(p, snap.Bytes(), func(back *triclust.Topic) bool {
		got, err := back.PredictTokenized(docs)
		return err == nil && slices.Equal(got, want)
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// timeRestores restores snap recoveryRepeats times, each time asking the
// restored topic for an answer that ok checks against the original's. The
// pass's recovery sample is the quietest restore-and-answer.
func timeRestores(p *passData, snap []byte, ok func(*triclust.Topic) bool) error {
	took := make([]int64, recoveryRepeats)
	for r := range took {
		p.attempted++
		t0 := time.Now()
		back, err := triclust.Restore(bytes.NewReader(snap))
		if err != nil {
			return fmt.Errorf("restore: %w", err)
		}
		answered := ok(back)
		took[r] = int64(time.Since(t0))
		if !answered {
			p.failed++
		}
	}
	p.recoveryNs = slices.Min(took)
	return nil
}

// untracedShare is the part of a traced run's seconds spent on untraced
// passes: they give the traced passes their baseline.
const untracedShare = 0.5

// passes is the number of untraced passes the run makes.
func (o options) passes(workload string) int {
	if o.trace {
		return passCount(workload, o.seconds*untracedShare)
	}
	return passCount(workload, o.seconds)
}

func runOnlineReplay(o options) (*result, error) {
	r := &result{workload: "online_replay", values: map[string]float64{}, fullSize: o.scale == 1}
	var in *streamInput // the last pass's, for the traced run
	passes, err := runPasses(o.passes(r.workload), func() (p *passData, err error) {
		in, p, err = onlinePass(o)
		return p, err
	})
	if err != nil {
		return nil, err
	}
	s := summarise(passes)
	r.absorb(s, passes)
	checkQuality(r, o)
	if o.trace {
		if err := traceOnlineReplay(r, in, s); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func runOfflineRefit(o options) (*result, error) {
	r := &result{workload: "offline_refit", values: map[string]float64{}, fullSize: o.scale == 1}
	var in *refitInput
	passes, err := runPasses(o.passes(r.workload), func() (p *passData, err error) {
		in, p, err = refitPass(o)
		return p, err
	})
	if err != nil {
		return nil, err
	}
	s := summarise(passes)
	r.absorb(s, passes)
	checkQuality(r, o)
	if o.trace {
		if err := traceOfflineRefit(r, in, s); err != nil {
			return nil, err
		}
	}
	return r, nil
}
