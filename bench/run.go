package main

import (
	"fmt"
	"slices"
)

// exactCounts are the outputs of a pass that must not differ between
// identical passes: sizes, counts and quality. A mismatch fails the run.
type exactCounts struct {
	tweets     int
	commits    int
	stateBytes int64
	diskBytes  int64
	tweetAcc   float64
	userAcc    float64
	iters      int
	// tweetSweeps sums, over the commits, sweeps × tweets in the commit:
	// the solver's work in tweet-sweeps.
	tweetSweeps int
	converged   int
	objective   float64
	replayed    int
}

// passData is what one pass of a workload measured.
type passData struct {
	commitNs   []int64 // one latency sample per commit
	readNs     []int64 // daemon_mixed: one per user read
	windowNs   int64   // the elapsed time rates are taken over
	cpuNs      int64   // CPU of the process under test inside the window
	recoveryNs int64
	// setupNs is what setting this pass up took: every pass starts from
	// nothing and times its own set-up.
	setupNs int64
	// serial holds the sizes of the runs of commit samples that one
	// client made back to back; the runs themselves go on side by side.
	// Empty means one run. dueTailNs, when set, marks an open loop: the
	// window ends when the last commit, due at dueTailNs, completes.
	serial    []int
	dueTailNs int64
	exact     exactCounts
	attempted int
	failed    int
	diag      map[string]float64 // per-pass diagnostics (daemon workloads)
}

// window is the elapsed time a pass whose commits took ops would need.
func (p *passData) window(ops []int64) int64 {
	if len(ops) == 0 {
		return 0
	}
	if p.dueTailNs > 0 {
		return p.dueTailNs + ops[len(ops)-1]
	}
	if len(p.serial) == 0 {
		return sum(ops)
	}
	var longest int64
	at := 0
	for _, n := range p.serial {
		longest = max(longest, sum(ops[at:at+n]))
		at += n
	}
	return longest
}

// passSeconds is how long one pass of each workload takes, everything
// between two passes included, on the machine the benchmark was
// calibrated on (CALIBRATION.md).
var passSeconds = map[string]float64{
	"online_replay": 1.9,
	"offline_refit": 2.6,
	"daemon_ingest": 2.4,
	"daemon_mixed":  2.7,
}

// minPasses is the fewest passes a run makes.
const minPasses = 4

// passCount is the number of passes that fill seconds at the calibrated
// pass length. It follows from -seconds alone, never from the clock:
// every timing is a least sample over the passes, and the least of N
// samples falls as N grows, so two commits are comparable only at the
// same N. Code that got slower makes the run longer, not the passes fewer.
func passCount(workload string, seconds float64) int {
	return max(minPasses, int(seconds/passSeconds[workload]+0.5))
}

// runPasses makes n identical passes.
func runPasses(n int, one func() (*passData, error)) ([]*passData, error) {
	passes := make([]*passData, 0, n)
	for len(passes) < n {
		p, err := one()
		if err != nil {
			return passes, fmt.Errorf("pass %d: %w", len(passes), err)
		}
		passes = append(passes, p)
	}
	return passes, nil
}

// summary is the quiet reduction of a run's passes.
type summary struct {
	values   map[string]float64
	problems []string
	exact    exactCounts
	// quietCommit[j] is the quietest sample of commit j over the passes;
	// quietWindowNs the window a pass made of those would take.
	quietCommit   []int64
	quietWindowNs int64
}

// quietOps returns, for every operation of a pass, its quietest (least)
// sample over the passes. Passes are identical, so sample j of every
// pass timed the same work.
func quietOps(samples [][]int64) []int64 {
	if len(samples) == 0 {
		return nil
	}
	out := append([]int64(nil), samples[0]...)
	for _, s := range samples[1:] {
		for j := range out {
			if j < len(s) && s[j] < out[j] {
				out[j] = s[j]
			}
		}
	}
	return out
}

// summarise applies the quiet rule. On this machine a core runs the same
// code at anything between its full speed and under half of it, changing
// within milliseconds, as whatever shares the core comes and goes; the
// least time an operation took over a run's identical passes is what the
// code costs on a quiet core, and it repeats where means, medians and
// even the faster half of the passes do not. Timing metrics are
// therefore computed from each operation's quietest sample — rates as
// work over the window those samples add up to, percentiles over them —
// and per-pass quantities (CPU time, recovery) from the quietest pass.
// Counts and quality come from all passes and must not differ.
func summarise(passes []*passData) summary {
	s := summary{values: map[string]float64{}}
	v := s.values
	commit := make([][]int64, len(passes))
	read := make([][]int64, len(passes))
	var cpu, recov, setup []int64
	var allWindow float64
	for i, p := range passes {
		commit[i], read[i] = p.commitNs, p.readNs
		cpu = append(cpu, p.cpuNs)
		recov = append(recov, p.recoveryNs)
		setup = append(setup, p.setupNs)
		allWindow += float64(p.windowNs)
		if len(p.commitNs) != len(passes[0].commitNs) || len(p.readNs) != len(passes[0].readNs) {
			s.problems = append(s.problems, fmt.Sprintf("pass %d made %d commits and %d reads, pass 0 made %d and %d",
				i, len(p.commitNs), len(p.readNs), len(passes[0].commitNs), len(passes[0].readNs)))
		}
	}
	s.quietCommit = quietOps(commit)
	s.quietWindowNs = passes[0].window(s.quietCommit)
	tweets := float64(passes[0].exact.tweets)
	v["tweets_per_s"] = ratio(tweets, float64(s.quietWindowNs)/1e9)
	v["cpu_ms_per_ktweet"] = ratio(float64(slices.Min(cpu))/1e6, tweets/1e3)
	v["recovery_ms"] = ms(slices.Min(recov))
	v["setup_s"] = float64(slices.Min(setup)) / 1e9
	v["noise.all_over_quiet"] = ratio(allWindow/float64(len(passes)), float64(s.quietWindowNs))

	// The median is taken over the operations' quietest samples. A tail is
	// about the slow cases, so tail percentiles pool every sample of every
	// pass; one with fewer than ten samples beyond it is not a measurement
	// and gets no value, as a workload without reads gets no read latency.
	batches := slices.Sorted(slices.Values(s.quietCommit))
	p50, _ := percentile(batches, 0.50)
	v["batch_p50_ms"] = ms(p50)
	allBatches := slices.Sorted(slices.Values(slices.Concat(commit...)))
	if p, ok := percentile(allBatches, 0.95); ok {
		v["batch_p95_ms"] = ms(p)
	}
	if p, ok := percentile(allBatches, 0.99); ok {
		v["batch_p99_ms"] = ms(p)
	}
	allReads := slices.Sorted(slices.Values(slices.Concat(read...)))
	if len(allReads) > 0 {
		reads := slices.Sorted(slices.Values(quietOps(read)))
		p50, _ = percentile(reads, 0.50)
		v["read_p50_us"] = us(p50)
		if p, ok := percentile(allReads, 0.99); ok {
			v["read_p99_us"] = us(p)
		}
	}
	v["samples.batch"] = float64(len(allBatches))
	v["samples.read"] = float64(len(allReads))
	v["samples.passes"] = float64(len(passes))

	s.exact = passes[0].exact
	for i, p := range passes {
		if p.exact != s.exact {
			s.problems = append(s.problems,
				fmt.Sprintf("pass %d counts %+v differ from pass 0 %+v", i, p.exact, s.exact))
		}
	}
	e := s.exact
	v["state_kb"] = float64(e.stateBytes) / 1024
	if e.diskBytes > 0 {
		v["disk_bytes_per_tweet"] = ratio(float64(e.diskBytes), float64(e.tweets))
	}
	v["tweet_accuracy"] = e.tweetAcc
	v["user_accuracy"] = e.userAcc
	v["sweeps_per_tweet"] = ratio(float64(e.tweetSweeps), float64(e.tweets))
	v["core.iters_per_batch"] = ratio(float64(e.iters), float64(e.commits))
	v["core.converged_share"] = ratio(float64(e.converged), float64(e.commits))
	v["core.objective_final"] = e.objective

	// Per-pass diagnostics: their median over the passes.
	keys := map[string]bool{}
	for _, p := range passes {
		for k := range p.diag {
			keys[k] = true
		}
	}
	for k := range keys {
		var xs []float64
		for _, p := range passes {
			if x, ok := p.diag[k]; ok {
				xs = append(xs, x)
			}
		}
		v[k] = median(xs)
	}
	return s
}
