package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"triclust"
	"triclust/internal/codec"
	"triclust/internal/engine"
	"triclust/internal/eval"
	"triclust/internal/fault"
	"triclust/internal/journal"
	"triclust/internal/text"
	"triclust/internal/tgraph"
)

// The traced run of a daemon workload replays the daemon's commit path
// in this process, through the same exported functions the daemon calls
// in the order it calls them — decode, Topic.Process, journal encode and
// append, compaction, response encode — with a span around each. What
// the client's clock saw beyond their sum is the daemon's own share:
// HTTP, routing, the topic lock, view publish, and contention.

// journalEvery is the daemon's default -journal-every: the replay
// compacts at the same record counts the daemon does.
const journalEvery = 64

// controlTopic builds, in process, the topic the daemon builds for tp.
func controlTopic(tp *topicInput, sh daemonShape) (*triclust.Topic, error) {
	users := make([]triclust.User, len(tp.userNames))
	for i, name := range tp.userNames {
		users[i] = triclust.User{Name: name, Label: triclust.NoLabel}
	}
	t, err := triclust.NewTopic(users,
		triclust.WithSolverConfig(daemonSolverConfig(sh)),
		triclust.WithMinDF(1),
		triclust.WithLexiconHit(0))
	if err != nil {
		return nil, err
	}
	if err := t.WarmupTokenized(tp.vocabDocs); err != nil {
		return nil, err
	}
	return t, t.Freeze()
}

// daemonSolverConfig is the solver configuration the daemon derives from
// the topic options the workload's create request carries.
func daemonSolverConfig(sh daemonShape) triclust.OnlineConfig {
	cfg := triclust.DefaultStreamOptions().Config
	if sh.maxIter > 0 {
		cfg.MaxIter = sh.maxIter
	}
	return cfg
}

// daemonSpec is tp's stream — warm-up batches, then the timed ones — as
// the shadow pipeline and the engine-level pass consume it.
func daemonSpec(tp *topicInput, sh daemonShape) *streamSpec {
	users := make([]tgraph.User, len(tp.userNames))
	for i, name := range tp.userNames {
		users[i] = tgraph.User{Name: name, Label: tgraph.NoLabel}
	}
	sp := &streamSpec{
		users: users,
		cfg: engine.Config{
			Online:    daemonSolverConfig(sh),
			MinDF:     1,
			Weighting: text.TFIDF,
			Tokenizer: text.DefaultTokenizerOptions(),
		},
		vocabDocs: tp.vocabDocs,
		from:      len(tp.warmTw),
	}
	for b, tweets := range tp.warmTw {
		sp.times = append(sp.times, b)
		sp.batches = append(sp.batches, tweets)
	}
	sp.times = append(sp.times, tp.times...)
	sp.batches = append(sp.batches, tp.batches...)
	return sp
}

// jsonReply mirrors the daemon's JSON batch response, for the replay's
// stand-in for its encoding.
type jsonReply struct {
	Time       int              `json:"time"`
	Skipped    bool             `json:"skipped"`
	Iterations int              `json:"iterations"`
	Converged  bool             `json:"converged"`
	Tweets     []jsonSentiment  `json:"tweets"`
	Users      []jsonUserResult `json:"users"`
}

type jsonSentiment struct {
	Class      int     `json:"class"`
	ClassName  string  `json:"class_name"`
	Confidence float64 `json:"confidence"`
}

type jsonUserResult struct {
	User int `json:"user"`
	jsonSentiment
}

// replayed is what the commit-path replay of one topic produced.
type replayed struct {
	classes    [][]int // per timed batch
	frameBytes int
	snapshot   []byte
	tailPath   string // the journal as it stood at the end
	tailCount  int
}

// replayTopic replays tp's whole stream through the commit path over a
// journal in dir; only the timed batches get spans.
func replayTopic(tr *tracer, tp *topicInput, sh daemonShape, dir string) (*replayed, error) {
	topic, err := controlTopic(tp, sh)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, tp.name+".journal")
	jw, err := journal.Create(fault.OS, path, 0)
	if err != nil {
		return nil, err
	}
	defer jw.Close()
	out := &replayed{tailPath: path}
	var scratch []tgraph.Tweet
	var respBuf []byte

	bodies := append(slices.Clone(tp.warm), tp.bodies...)
	for b, body := range bodies {
		timed := b >= len(tp.warm)
		t := tr
		if !timed {
			t = nil
		}
		span := func(name string) func() { return t.span(name, b-len(tp.warm)) }
		end := span("daemon.commit")

		// Decode the request body.
		var ts int
		var tweets []tgraph.Tweet
		if sh.rawText {
			endDec := span("triclustd.json_decode")
			var req jsonBatch
			if err := json.Unmarshal(body, &req); err != nil {
				return nil, err
			}
			ts = req.Time
			tweets = make([]tgraph.Tweet, len(req.Tweets))
			for i, tw := range req.Tweets {
				tweets[i] = tgraph.Tweet{Text: tw.Text, Tokens: tw.Tokens, User: tw.User, Time: ts, RetweetOf: -1, Label: tgraph.NoLabel}
				if tw.Time != nil {
					tweets[i].Time = *tw.Time
				}
			}
			endDec()
		} else {
			endDec := span("codec.batch_decode")
			ts, tweets, err = codec.DecodeBatchRequest(body, scratch[:0])
			endDec()
			if err != nil {
				return nil, err
			}
			scratch = tweets
		}

		endProc := span("topic.process")
		res, err := topic.Process(ts, tweets)
		endProc()
		if err != nil {
			return nil, fmt.Errorf("replay %s batch %d: %w", tp.name, b, err)
		}

		// Journal: encode the record, append and fsync it.
		endAppend := span("journal.append")
		batches, draws := topic.StreamPos()
		rec := journal.Record{Time: ts, Tweets: tweets, Batches: batches, RandDraws: draws}
		endEnc := span("journal.encode")
		frame, err := journal.EncodeFrame(&rec)
		endEnc()
		if err == nil {
			err = jw.AppendFrames(frame)
		}
		endAppend()
		if err != nil {
			return nil, err
		}
		out.tailCount++
		if timed {
			out.frameBytes += len(frame)
		}

		// Compaction: every journalEvery records the state is rewritten as
		// a snapshot and the journal restarts.
		if out.tailCount >= journalEvery {
			endCompact := span("persist.compact")
			err := compact(topic, jw, filepath.Join(dir, tp.name+".snap"))
			endCompact()
			if err != nil {
				return nil, err
			}
			out.tailCount = 0
		}

		// Encode the response.
		if sh.rawText {
			endResp := span("triclustd.json_encode")
			reply := jsonReply{Time: ts, Skipped: res.Skipped, Iterations: res.Iterations, Converged: res.Converged}
			for _, s := range res.TweetSentiments {
				reply.Tweets = append(reply.Tweets, jsonSentiment{s.Class, triclust.ClassName(s.Class), s.Confidence})
			}
			for i, s := range res.UserSentiments {
				reply.Users = append(reply.Users, jsonUserResult{res.ActiveUsers[i], jsonSentiment{s.Class, triclust.ClassName(s.Class), s.Confidence}})
			}
			_, err := json.Marshal(&reply)
			endResp()
			if err != nil {
				return nil, err
			}
		} else {
			endResp := span("codec.response_encode")
			br := codec.BatchResult{Time: ts, Skipped: res.Skipped, Converged: res.Converged, Iterations: res.Iterations}
			for _, s := range res.TweetSentiments {
				br.Tweets = append(br.Tweets, codec.BatchSentiment{Class: s.Class, Confidence: s.Confidence})
			}
			for i, s := range res.UserSentiments {
				br.Users = append(br.Users, codec.BatchUserSentiment{User: res.ActiveUsers[i], Class: s.Class, Confidence: s.Confidence})
			}
			respBuf = codec.AppendBatchResponse(respBuf[:0], &br)
			endResp()
		}
		end()
		if timed {
			classes := make([]int, len(res.TweetSentiments))
			for i, s := range res.TweetSentiments {
				classes[i] = s.Class
			}
			out.classes = append(out.classes, classes)
		}
	}
	var snap bytes.Buffer
	if err := topic.Snapshot(&snap); err != nil {
		return nil, err
	}
	out.snapshot = snap.Bytes()
	return out, nil
}

// compact writes the topic's snapshot beside the journal the way the
// daemon's store does — temp file, fsync, rename, directory fsync — and
// restarts the journal against it.
func compact(topic *triclust.Topic, jw *journal.Writer, path string) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	cw := journal.NewCRCWriter(tmp)
	if err := topic.Snapshot(cw); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	if err := fault.OS.SyncDir("bench.compact", filepath.Dir(path)); err != nil {
		return err
	}
	return jw.Rotate(cw.Sum())
}

// startupRepeats is how many empty-data-dir daemon starts are timed.
const startupRepeats = 3

func traceDaemon(r *result, f *fleet, s summary) error {
	v := r.values
	sh := f.shape
	dir, err := f.env.tempDir("replay-")
	if err != nil {
		return err
	}
	defer f.env.removeDir(dir)

	// The commit-path replay, every topic in turn.
	var reps []*replayed
	replaySpans, total, err := tracedRuns(1, func(trs []*tracer) error {
		reps = reps[:0]
		for _, tp := range f.topics {
			rp, err := replayTopic(trs[0], tp, sh, dir)
			if err != nil {
				return err
			}
			reps = append(reps, rp)
		}
		return nil
	})
	if err != nil {
		return err
	}
	var pred, truth []int
	var tweets, wireBytes, frameBytes int
	for i, tp := range f.topics {
		for b := range reps[i].classes {
			pred = append(pred, offsetClasses(reps[i].classes[b], i)...)
			truth = append(truth, offsetClasses(tp.truth[b], i)...)
		}
		for _, body := range tp.bodies {
			wireBytes += len(body)
		}
		tweets += tp.tweets
		frameBytes += reps[i].frameBytes
	}
	first := reps[0]
	nb := float64(len(f.topics) * sh.batchesPerTopic)
	kt := float64(tweets) / 1e3

	if !bytes.Equal(first.snapshot, f.lastSnapshot) {
		r.fail("topic %s: the daemon's final snapshot (%d B) differs from the in-process control's (%d B)",
			f.topics[0].name, len(f.lastSnapshot), len(first.snapshot))
	}
	if got, want := eval.Accuracy(pred, truth), v["tweet_accuracy"]; got != want {
		r.fail("commit-path replay tweet accuracy %.12f, daemon %.12f", got, want)
	}

	v["codec.batch_decode_us_per_ktweet"] = ratio(us(total["codec.batch_decode"]), kt)
	v["codec.response_encode_us_per_batch"] = ratio(us(total["codec.response_encode"]), nb)
	if !sh.rawText {
		v["codec.batch_wire_bytes_per_tweet"] = ratio(float64(wireBytes), float64(tweets))
	}
	v["triclustd.json_decode_us_per_ktweet"] = ratio(us(total["triclustd.json_decode"]), kt)
	v["journal.encode_us_per_batch"] = ratio(us(total["journal.encode"]), nb)
	v["journal.append_us_per_batch"] = ratio(us(total["journal.append"]), nb)
	v["journal.bytes_per_tweet"] = ratio(float64(frameBytes), float64(tweets))
	v["topic.process_us_per_ktweet"] = ratio(us(total["topic.process"]), kt)

	// What the client's clock saw beyond the replayed commit path.
	roundtrip := ratio(float64(sum(s.quietCommit)), float64(len(s.quietCommit)))
	replay := ratio(float64(total["daemon.commit"]), nb)
	v["triclustd.roundtrip_us_per_batch"] = roundtrip / 1e3
	v["triclustd.self_us_per_batch"] = (roundtrip - replay) / 1e3
	v["triclustd.self_share"] = ratio(roundtrip-replay, roundtrip)

	// Loading the journal tail, as recovery does before replaying it.
	if first.tailCount > 0 {
		var lerr error
		load := quietTime(apiRepeats, func() { _, lerr = journal.Load(fault.OS, first.tailPath) })
		if lerr != nil {
			return lerr
		}
		v["journal.load_ms_per_kbatch"] = ms(int64(load)) / float64(first.tailCount) * 1e3
	}
	if err := snapshotCodec(v, first.snapshot); err != nil {
		return err
	}

	// Topic 0's stream through the engine-level pass and the shadow
	// pipeline, for the layers under Topic.Process.
	sc, lc, spans, err := streamLayers(r, daemonSpec(f.topics[0], sh))
	if err != nil {
		return err
	}
	for b := range lc.classes {
		if !slices.Equal(lc.classes[b], first.classes[b]) || !slices.Equal(sc.classes[b], first.classes[b]) {
			r.fail("topic %s batch %d: the shadow pipeline's labels differ from Topic.Process's", f.topics[0].name, b)
			break
		}
	}

	// Start-up on an empty data dir, against recovery on a killed one.
	var startups []int64
	for i := 0; i < startupRepeats; i++ {
		empty, err := f.env.tempDir("empty-")
		if err != nil {
			return err
		}
		d, took, err := f.env.startDaemon(empty)
		if err != nil {
			return err
		}
		d.kill()
		f.env.removeDir(empty)
		startups = append(startups, int64(took))
	}
	v["triclustd.startup_empty_ms"] = ms(slices.Min(startups))
	v["triclustd.recovery_replayed_batches"] = float64(s.exact.replayed)
	v["triclustd.recovery_ms_per_replayed_batch"] =
		ratio(v["recovery_ms"]-v["triclustd.startup_empty_ms"], float64(s.exact.replayed))
	r.spans = append(replaySpans[0], rebase(spans, len(replaySpans[0]))...)
	return nil
}
