// Command bench is the repository's benchmark: four workloads over the
// library and the triclustd daemon, end-to-end metrics from an untraced
// run and per-layer metrics from a separate traced run. See README.md
// for the metric glossary and BENCHMARK.json for the contract.
//
//	go run -C bench . -workload online_replay -seed 1 -seconds 20 -trace 0
//
// Without -workload all four run in turn. The last line of standard
// output is one JSON object: correct, attempted, failed, metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"syscall"

	"triclust/internal/par"
)

// width is the GOMAXPROCS of this process and of the daemon, and the
// width of the compute kernels in both, whatever the machine has:
// results are bit-identical only at a fixed width, so accuracies and
// iteration counts stay exact across machines.
const width = 2

// options are the arguments of one workload run.
type options struct {
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	// scale shrinks the generated corpora (1 = the sizes README.md
	// states); the tests of the measuring code run at 20.
	scale int
}

// result is what one workload run reports.
type result struct {
	workload  string
	values    map[string]float64
	attempted int
	failed    int
	problems  []string // correctness gates missed
	spans     []span
	// fullSize says the corpora have the sizes README.md states; gates
	// that need them (accuracy floors, timing ratios) pass over the
	// tests' 1/20-scale runs.
	fullSize bool
}

func (r *result) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// absorb folds a summary and its passes' operation counts into r.
func (r *result) absorb(s summary, passes []*passData) {
	for k, v := range s.values {
		r.values[k] = v
	}
	r.problems = append(r.problems, s.problems...)
	for _, p := range passes {
		r.attempted += p.attempted
		r.failed += p.failed
	}
}

func runWorkload(env *benchEnv, name string, o options) (*result, error) {
	switch name {
	case "online_replay":
		return runOnlineReplay(o)
	case "offline_refit":
		return runOfflineRefit(o)
	case "daemon_ingest":
		return runDaemonIngest(env, o)
	case "daemon_mixed":
		return runDaemonMixed(env, o)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloads)
}

// metricLine is one metric of the final JSON object.
type metricLine struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints every metric of the run's mode that the workload has, by
// name and unit, then the JSON object the driver reads. A pair that does
// not exist (a read latency where nothing reads, a percentile with fewer
// than ten samples beyond it) is not printed; the JSON object, which
// must carry every name of its list, holds 0 for it. It returns whether
// the run passed.
func report(w io.Writer, r *result, trace bool) bool {
	list := endToEnd
	if trace {
		list = perLayer
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]metricLine `json:"metrics"`
	}{Attempted: r.attempted, Failed: r.failed + len(r.problems), Metrics: map[string]metricLine{}}
	fmt.Fprintf(w, "workload %s\n", r.workload)
	for _, m := range list {
		v, ok := r.values[m.name]
		if ok {
			fmt.Fprintf(w, "  %-42s %14.6g %s\n", m.name, v, m.unit)
		}
		out.Metrics[m.name] = metricLine{Value: v, Unit: m.unit}
	}
	if !trace {
		// The timings without a bound (see metrics.go) are on the
		// per-layer list; the untraced run prints them for the reader.
		for _, m := range timings {
			if v, ok := r.values[m.name]; ok {
				fmt.Fprintf(w, "  unbounded: %-31s %14.6g %s\n", m.name, v, m.unit)
			}
		}
	}
	fmt.Fprintf(w, "  %.0f passes, %.0f batch samples, %.0f read samples; noise.all_over_quiet %.3f\n",
		r.values["samples.passes"], r.values["samples.batch"], r.values["samples.read"], r.values["noise.all_over_quiet"])
	for _, p := range r.problems {
		fmt.Fprintf(w, "  FAILED: %s\n", p)
	}
	out.Correct = out.Failed == 0
	if out.Attempted < 1 {
		out.Attempted = 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		panic(err) // a map of floats and strings always encodes
	}
	fmt.Fprintf(w, "%s\n", line)
	return out.Correct
}

func main() {
	workload := flag.String("workload", "", "workload to run (default: all four in turn)")
	seed := flag.Int64("seed", 1, "derives every workload's input seed")
	seconds := flag.Float64("seconds", 20, "how long a run measures")
	trace := flag.Int("trace", 0, "1: the traced run that prints the per-layer metrics")
	traceOut := flag.String("trace-out", "", "traced run: write the spans to this file as JSON")
	calibrate := flag.Int("calibrate", 0, "run every workload on this many seeds (seed, seed+1, ...) and print the spread table of CALIBRATION.md")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}

	runtime.GOMAXPROCS(width)
	par.SetProcs(width)

	env, err := newEnv()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	// Every exit path kills the daemon child and removes the temp dirs.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		env.cleanup()
		os.Exit(130)
	}()
	code := run(env, *workload, options{
		seed: *seed, seconds: *seconds, trace: *trace != 0, traceOut: *traceOut, scale: 1,
	}, *calibrate)
	env.cleanup()
	os.Exit(code)
}

func run(env *benchEnv, workload string, o options, calibrate int) int {
	names := workloads
	if workload != "" {
		if !slices.Contains(workloads, workload) {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %v)\n", workload, workloads)
			return 2
		}
		names = []string{workload}
	}
	if calibrate > 0 {
		return runCalibration(env, names, o, calibrate)
	}
	code := 0
	spans := map[string][]span{}
	for _, name := range names {
		r, err := runWorkload(env, name, o)
		if err != nil {
			// No result line: the run did not measure anything.
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			return 1
		}
		spans[name] = r.spans
		if !report(os.Stdout, r, o.trace) {
			code = 1
		}
	}
	if o.trace && o.traceOut != "" {
		if err := writeSpans(o.traceOut, spans); err != nil {
			fmt.Fprintf(os.Stderr, "bench: write spans: %v\n", err)
			return 1
		}
	}
	return code
}
