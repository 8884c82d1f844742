package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"triclust/internal/eval"
)

// fleet is one pass's set-up of a daemon workload: one daemon over one
// data dir, serving the workload's topics, created and warm.
type fleet struct {
	env    *benchEnv
	shape  daemonShape
	topics []*topicInput
	dir    string
	d      *daemon
	// lastSnapshot is topic 0's snapshot as the daemon served it at the
	// end of the pass; the traced run compares it with an in-process
	// control.
	lastSnapshot []byte
}

// setupFleet is what setup_s times on the daemon workloads: generate and
// pre-encode the traffic, start the daemon, create and warm the topics.
// The daemon binary is built before the clock starts.
func setupFleet(env *benchEnv, seed int64, sh daemonShape, name string) (*fleet, error) {
	topics, err := genDaemonTopics(seed, sh, name)
	if err != nil {
		return nil, err
	}
	dir, err := env.tempDir(name + "-data-")
	if err != nil {
		return nil, err
	}
	d, _, err := env.startDaemon(dir)
	if err != nil {
		env.removeDir(dir)
		return nil, err
	}
	f := &fleet{env: env, shape: sh, topics: topics, dir: dir, d: d}
	if err := f.createTopics(); err != nil {
		f.teardown()
		return nil, err
	}
	return f, nil
}

func (f *fleet) teardown() {
	f.d.kill()
	f.env.removeDir(f.dir)
}

// createTopics creates every topic, freezes its vocabulary and sends its
// warm-up batches; none of it is inside a timed window.
func (f *fleet) createTopics() error {
	c := newClient(f.d.base)
	defer c.close()
	ctype := mtBatch
	if f.shape.rawText {
		ctype = mtJSON
	}
	for _, tp := range f.topics {
		if _, _, err := c.must(http.StatusCreated, "POST", "/v1/topics", mtJSON, tp.create); err != nil {
			return err
		}
		if _, _, err := c.must(http.StatusOK, "POST", "/v1/topics/"+tp.name+"/vocab", mtJSON, tp.vocab); err != nil {
			return err
		}
		for _, body := range tp.warm {
			if _, _, err := c.must(http.StatusOK, "POST", "/v1/topics/"+tp.name+"/batches", ctype, body); err != nil {
				return err
			}
		}
	}
	return nil
}

// driven is what a workload's timed window produced: the pass's
// samples and counts so far, and the classes the daemon returned.
type driven struct {
	passData
	// pred[t] holds the classes returned for topic t's timed tweets, in
	// batch order.
	pred [][]int
}

// userRead is the JSON body of GET …/users/{u}.
type userRead struct {
	User        int `json:"user"`
	Class       int `json:"class"`
	Convergence struct {
		Batches int `json:"batches"`
	} `json:"convergence"`
}

// probeUser is the user whose estimate is read before and after every
// kill; the warm-up batches give every user an estimate.
const probeUser = 0

// pass runs one pass over the fleet's fresh topics: the workload's timed
// window, then SIGKILL, restart on the same data dir and verification.
func (f *fleet) pass(drive func(f *fleet) (*driven, error)) (*passData, error) {
	pid := f.d.pid
	cpu0, err := pidCPU(pid)
	if err != nil {
		return nil, err
	}
	wrote0 := pidKey(pid, "io", "write_bytes")
	dr, err := drive(f)
	if err != nil {
		return nil, err
	}
	cpu1, err := pidCPU(pid)
	if err != nil {
		return nil, err
	}
	p := &dr.passData
	p.cpuNs = int64(cpu1 - cpu0)
	if p.diag == nil {
		p.diag = map[string]float64{}
	}

	// The kill point: what is acked is on disk, nothing is in flight.
	c := newClient(f.d.base)
	acked := f.shape.warmBatches + f.shape.batchesPerTopic
	etags := make([]string, len(f.topics))
	bodies := make([]string, len(f.topics))
	userPath := func(tp *topicInput, u int) string {
		return fmt.Sprintf("/v1/topics/%s/users/%d", tp.name, u)
	}
	for i, tp := range f.topics {
		hdr, body, err := c.must(http.StatusOK, "GET", userPath(tp, probeUser), "", nil)
		if err != nil {
			return nil, err
		}
		etags[i], bodies[i] = hdr.Get("ETag"), string(body)
		var ur userRead
		if err := json.Unmarshal(body, &ur); err != nil || ur.Convergence.Batches != acked {
			p.failed++
		}
		_, snap, err := c.must(http.StatusOK, "GET", "/v1/topics/"+tp.name+"/snapshot", "", nil)
		if err != nil {
			return nil, err
		}
		p.exact.stateBytes += int64(len(snap))
		if i == 0 {
			f.lastSnapshot = append(f.lastSnapshot[:0], snap...)
		}
		p.exact.tweets += tp.tweets
		p.exact.commits += len(tp.bodies)
	}
	c.close()
	if p.exact.diskBytes, err = dirBytes(f.dir); err != nil {
		return nil, err
	}
	p.diag["triclustd.peak_rss_mb"] = float64(pidKey(pid, "status", "VmHWM")) / 1024
	p.diag["triclustd.write_bytes_per_tweet"] =
		ratio(float64(pidKey(pid, "io", "write_bytes")-wrote0), float64(p.exact.tweets))

	// Crash and recover: spawn → /healthz ok → one verified read per topic.
	f.d.kill()
	t0 := time.Now()
	d, _, err := f.env.startDaemon(f.dir)
	if err != nil {
		return nil, fmt.Errorf("restart after SIGKILL: %w", err)
	}
	f.d = d
	c = newClient(d.base)
	defer c.close()
	for i, tp := range f.topics {
		p.attempted++
		hdr, body, err := c.must(http.StatusOK, "GET", userPath(tp, probeUser), "", nil)
		if err != nil {
			return nil, err
		}
		// The ETag is the stream fingerprint, batch count included: an
		// acked batch missing after recovery changes it.
		if hdr.Get("ETag") != etags[i] || !sameEstimate(string(body), bodies[i]) {
			p.failed++
		}
	}
	p.recoveryNs = int64(time.Since(t0))
	p.exact.replayed = d.replayedRecords()

	// Quality, read from the recovered daemon: every timed tweet's
	// returned class against its planted one, every user's final
	// estimate against their planted final stance.
	var pred, truth, upred, utruth []int
	for i, tp := range f.topics {
		pred = append(pred, offsetClasses(dr.pred[i], i)...)
		for _, t := range tp.truth {
			truth = append(truth, offsetClasses(t, i)...)
		}
		for u := 0; u < tp.users; u++ {
			_, body, err := c.must(http.StatusOK, "GET", userPath(tp, u), "", nil)
			if err != nil {
				return nil, err
			}
			var ur userRead
			if err := json.Unmarshal(body, &ur); err != nil {
				return nil, fmt.Errorf("user read body %q: %w", body, err)
			}
			upred = append(upred, ur.Class+classStride*i)
			utruth = append(utruth, tp.userTruth[u]+classStride*i)
		}
	}
	if len(pred) != len(truth) {
		p.failed++
	} else {
		p.exact.tweetAcc = eval.Accuracy(pred, truth)
	}
	p.exact.userAcc = eval.Accuracy(upred, utruth)
	return p, nil
}

// classStride keeps the topics' clusters apart when their predictions
// are scored together: each topic's clusters map to classes on their own.
const classStride = 16

func offsetClasses(classes []int, topic int) []int {
	out := make([]int, len(classes))
	for i, c := range classes {
		out[i] = c + classStride*topic
	}
	return out
}

// sameEstimate compares two user-read bodies on the fields that survive
// a restart: the convergence delta is rebuilt against no predecessor
// after one, everything before it in the body is stable.
func sameEstimate(a, b string) bool {
	var x, y struct {
		User       int     `json:"user"`
		Class      int     `json:"class"`
		Confidence float64 `json:"confidence"`
	}
	if json.Unmarshal([]byte(a), &x) != nil || json.Unmarshal([]byte(b), &y) != nil {
		return false
	}
	return x == y
}
