package main

import (
	"net/http"
	"sync"
	"time"

	"triclust/internal/codec"
)

// ingestShape: four small topics fed 30-tweet pre-tokenized batches as
// binary frames, the solver capped at four sweeps (at its default cap a
// 30-tweet batch runs ~46 sweeps and the solver is 80 % of the request),
// so per-batch fixed costs — frame decode, conformance score, journal
// append and fsync, view publish, response encode, HTTP — dominate.
func ingestShape(scale int) daemonShape {
	return daemonShape{
		topics: 4, users: 60, perBatch: 30,
		batchesPerTopic: max(8, 480/scale),
		warmBatches:     1,
		maxIter:         4,
	}
}

// ingestClients is the number of closed-loop clients; each owns an equal
// share of the topics and one keep-alive connection.
const ingestClients = 2

// driveIngest is the timed window of daemon_ingest: every client posts
// its topics' batches in turn, each as soon as the last was answered.
func driveIngest(f *fleet) (*driven, error) {
	dr := &driven{pred: make([][]int, len(f.topics))}
	type clientOut struct {
		commitNs          []int64
		attempted, failed int
		iters, convergedN int
		tweetSweeps       int
		firstErr          error
	}
	outs := make([]clientOut, ingestClients)
	var wg sync.WaitGroup
	start := time.Now()
	for k := 0; k < ingestClients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			o := &outs[k]
			c := newClient(f.d.base)
			defer c.close()
			var own []int
			for t := k; t < len(f.topics); t += ingestClients {
				own = append(own, t)
			}
			for b := 0; b < f.shape.batchesPerTopic; b++ {
				for _, t := range own {
					tp := f.topics[t]
					t0 := time.Now()
					status, _, body, err := c.call("POST", "/v1/topics/"+tp.name+"/batches", mtBatch, mtBatch, "", tp.bodies[b])
					o.commitNs = append(o.commitNs, int64(time.Since(t0)))
					o.attempted++
					if err != nil {
						o.failed++
						o.firstErr = err
						return
					}
					res, derr := codec.DecodeBatchResponse(body)
					if status != http.StatusOK || derr != nil || len(res.Tweets) != len(tp.batches[b]) {
						o.failed++
						continue
					}
					for _, s := range res.Tweets {
						dr.pred[t] = append(dr.pred[t], s.Class)
					}
					o.iters += res.Iterations
					o.tweetSweeps += res.Iterations * len(res.Tweets)
					if res.Converged {
						o.convergedN++
					}
				}
			}
		}(k)
	}
	wg.Wait()
	dr.windowNs = int64(time.Since(start))
	for _, o := range outs {
		if o.firstErr != nil {
			return nil, o.firstErr
		}
		dr.commitNs = append(dr.commitNs, o.commitNs...)
		dr.serial = append(dr.serial, len(o.commitNs))
		dr.attempted += o.attempted
		dr.failed += o.failed
		dr.exact.iters += o.iters
		dr.exact.tweetSweeps += o.tweetSweeps
		dr.exact.converged += o.convergedN
	}
	return dr, nil
}

func runDaemonIngest(env *benchEnv, o options) (*result, error) {
	return runDaemonWorkload(env, o, "daemon_ingest", ingestShape(o.scale), driveIngest)
}

// runDaemonWorkload is the run both daemon workloads share: every pass
// sets a fleet up from nothing, drives it, crashes and recovers it, and
// tears it down.
func runDaemonWorkload(env *benchEnv, o options, name string, sh daemonShape, drive func(*fleet) (*driven, error)) (*result, error) {
	r := &result{workload: name, values: map[string]float64{}, fullSize: o.scale == 1}
	if _, err := env.daemonBinary(); err != nil {
		return nil, err
	}
	var f *fleet // the last pass's, for the traced run
	passes, err := runPasses(o.passes(name), func() (*passData, error) {
		var setupNs int64
		var err error
		f, setupNs, err = timedSetup(
			func() (*fleet, error) { return setupFleet(env, o.seed, sh, name) },
			(*fleet).teardown)
		if err != nil {
			return nil, err
		}
		defer f.teardown()
		p, err := f.pass(drive)
		if err != nil {
			return nil, err
		}
		p.setupNs = setupNs
		return p, nil
	})
	if err != nil {
		return nil, err
	}
	s := summarise(passes)
	r.absorb(s, passes)
	r.values["triclustd.build_s"] = env.binBuild.Seconds()
	checkQuality(r, o)
	if o.trace {
		if err := traceDaemon(r, f, s); err != nil {
			return nil, err
		}
	}
	return r, nil
}
