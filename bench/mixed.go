package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"
)

// mixedShape: two larger topics fed 200-tweet raw-text JSON batches (the
// daemon tokenizes and decodes JSON), at the solver's default iteration
// cap, so a killed daemon replays its journal tail through real solves.
func mixedShape(scale int) daemonShape {
	return daemonShape{
		topics: 2, users: max(20, 400/scale), perBatch: max(10, 200/scale),
		batchesPerTopic: int(mixedWindow.Seconds()*mixedBatchRate) / 2,
		warmBatches:     2,
		rawText:         true,
	}
}

// The open-loop schedule of daemon_mixed. Batches are due at a fixed
// rate on one connection, alternating topics; user reads are due at a
// fixed rate on the other, half of them conditional on the last ETag
// seen; a snapshot download is due on the read connection every
// mixedSnapshotEvery. Nothing waits for the daemon: an op is late only
// when its own connection is still busy, and its latency runs from its
// due time either way.
const (
	mixedWindow        = 2 * time.Second
	mixedBatchRate     = 24.0  // batches/s, ≈4,800 tweets/s offered
	mixedReadRate      = 400.0 // reads/s
	mixedSnapshotEvery = 2 * time.Second
	mixedSnapshotFirst = time.Second
)

// batchReply is the part of the JSON batch response the benchmark reads.
type batchReply struct {
	Iterations int  `json:"iterations"`
	Converged  bool `json:"converged"`
	Tweets     []struct {
		Class int `json:"class"`
	} `json:"tweets"`
}

// readOp is one op of the read connection's schedule.
type readOp struct {
	due      time.Duration
	snapshot bool
	topic    int
	user     int
	// conditional reads carry the last ETag seen for their topic.
	conditional bool
}

func mixedReadSchedule(topics, users int) []readOp {
	var ops []readOp
	n := int(mixedWindow.Seconds() * mixedReadRate)
	for j := 0; j < n; j++ {
		ops = append(ops, readOp{
			due:   time.Duration(float64(j) / mixedReadRate * float64(time.Second)),
			topic: j % topics, user: (j * 37) % users,
			conditional: (j/topics)%2 == 1,
		})
	}
	for at := mixedSnapshotFirst; at < mixedWindow; at += mixedSnapshotEvery {
		ops = append(ops, readOp{due: at, snapshot: true, topic: int(at/mixedSnapshotEvery) % topics})
	}
	sort.SliceStable(ops, func(a, b int) bool { return ops[a].due < ops[b].due })
	return ops
}

// driveMixed is the timed window of daemon_mixed.
func driveMixed(f *fleet) (*driven, error) {
	dr := &driven{pred: make([][]int, len(f.topics))}
	dr.diag = map[string]float64{}
	nBatches := f.shape.batchesPerTopic * len(f.topics)
	batchDue := make([]time.Duration, nBatches)
	for i := range batchDue {
		batchDue[i] = time.Duration(float64(i) / mixedBatchRate * float64(time.Second))
	}
	reads := mixedReadSchedule(len(f.topics), f.shape.users)
	readDue := make([]time.Duration, len(reads))
	for i, op := range reads {
		readDue[i] = op.due
	}

	replies := make([][]byte, nBatches)
	status200 := make([]bool, len(reads))  // a full body, as against a 304
	serviceNs := make([]int64, len(reads)) // send to answer, without the wait for the due time
	var firstErr error
	var errMu sync.Mutex
	noteErr := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}

	cpu0 := selfCPU()
	start := time.Now()
	now := func() time.Duration { return time.Since(start) }
	var batchRes, readRes openLoopResult
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		c := newClient(f.d.base)
		defer c.close()
		batchRes = runSchedule(batchDue, func(i int) error {
			tp := f.topics[i%len(f.topics)]
			status, _, body, err := c.call("POST", "/v1/topics/"+tp.name+"/batches", mtJSON, "", "", tp.bodies[i/len(f.topics)])
			if err != nil {
				noteErr(err)
				return err
			}
			if status != http.StatusOK {
				return fmt.Errorf("batch status %d", status)
			}
			replies[i] = append([]byte(nil), body...)
			return nil
		}, now, preciseSleep)
	}()
	go func() {
		defer wg.Done()
		c := newClient(f.d.base)
		defer c.close()
		lastTag := make([]string, len(f.topics))
		readRes = runSchedule(readDue, func(i int) error {
			op := reads[i]
			tp := f.topics[op.topic]
			if op.snapshot {
				status, _, _, err := c.call("GET", "/v1/topics/"+tp.name+"/snapshot", "", "", "", nil)
				if err != nil {
					noteErr(err)
					return err
				}
				if status != http.StatusOK {
					return fmt.Errorf("snapshot status %d", status)
				}
				return nil
			}
			tag := ""
			if op.conditional {
				tag = lastTag[op.topic]
			}
			sent := time.Now()
			status, hdr, _, err := c.call("GET", fmt.Sprintf("/v1/topics/%s/users/%d", tp.name, op.user), "", "", tag, nil)
			serviceNs[i] = int64(time.Since(sent))
			if err != nil {
				noteErr(err)
				return err
			}
			switch {
			case status == http.StatusOK:
				status200[i] = true
				lastTag[op.topic] = hdr.Get("ETag")
			case status == http.StatusNotModified && tag != "":
			default:
				return fmt.Errorf("read status %d", status)
			}
			return nil
		}, now, time.Sleep)
	}()
	wg.Wait()
	genCPU := selfCPU() - cpu0
	if firstErr != nil {
		return nil, firstErr
	}

	dr.commitNs = durationsNs(batchRes.latency)
	// The window runs to the last batch's completion: tweets committed
	// over elapsed is the rate achieved, the offered rate unless the
	// daemon fell behind.
	dr.dueTailNs = int64(batchDue[nBatches-1])
	dr.windowNs = dr.dueTailNs + int64(batchRes.latency[nBatches-1])
	dr.attempted = nBatches + len(reads)
	dr.failed = batchRes.failed + readRes.failed

	var n200, n304 int
	var ns200, ns304 int64
	for i, op := range reads {
		if op.snapshot {
			continue
		}
		dr.readNs = append(dr.readNs, int64(readRes.latency[i]))
		if status200[i] {
			n200++
			ns200 += serviceNs[i]
		} else {
			n304++
			ns304 += serviceNs[i]
		}
	}
	dr.diag["triclustd.read_200_us"] = ratio(float64(ns200)/1e3, float64(n200))
	dr.diag["triclustd.read_304_us"] = ratio(float64(ns304)/1e3, float64(n304))
	dr.diag["triclustd.read_304_share"] = ratio(float64(n304), float64(n200+n304))
	late := append(durationsNs(batchRes.late), durationsNs(readRes.late)...)
	sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
	p99, _ := percentile(late, 0.99)
	dr.diag["loadgen.late_p99_ms"] = ms(p99)
	dr.diag["loadgen.backlog_max"] = float64(max(batchRes.backlogMax, readRes.backlogMax))
	dr.diag["loadgen.cpu_share"] = ratio(float64(genCPU), float64(width)*float64(time.Since(start)))

	// Replies are decoded after the window, so that decoding costs the
	// generator nothing while it is being timed against.
	for i, body := range replies {
		var rep batchReply
		t := i % len(f.topics)
		want := len(f.topics[t].batches[i/len(f.topics)])
		if body == nil || json.Unmarshal(body, &rep) != nil || len(rep.Tweets) != want {
			dr.failed++
			continue
		}
		for _, tw := range rep.Tweets {
			dr.pred[t] = append(dr.pred[t], tw.Class)
		}
		dr.exact.iters += rep.Iterations
		dr.exact.tweetSweeps += rep.Iterations * len(rep.Tweets)
		if rep.Converged {
			dr.exact.converged++
		}
	}
	return dr, nil
}

func runDaemonMixed(env *benchEnv, o options) (*result, error) {
	return runDaemonWorkload(env, o, "daemon_mixed", mixedShape(o.scale), driveMixed)
}
