package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"time"
)

func seq(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i + 1)
	}
	return out
}

func TestPercentileTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want int64
		ok   bool
	}{
		{100, 0.50, 50, true},
		{100, 0.95, 95, false}, // five samples beyond
		{220, 0.95, 209, true}, // eleven beyond
		{1000, 0.99, 990, true},
		{999, 0.99, 990, false}, // nine beyond
		{21, 0.50, 11, true},
		{20, 0.50, 10, true},
		{19, 0.50, 10, false},
	} {
		got, ok := percentile(seq(tc.n), tc.q)
		if got != tc.want || ok != tc.ok {
			t.Errorf("percentile(1..%d, %.2f) = %d, %v; want %d, %v", tc.n, tc.q, got, ok, tc.want, tc.ok)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported ok")
	}
}

func TestQuietOps(t *testing.T) {
	got := quietOps([][]int64{{5, 9, 3}, {6, 2, 4}, {7, 8, 1}})
	if want := []int64{5, 2, 1}; !slices.Equal(got, want) {
		t.Errorf("quietOps = %v, want %v", got, want)
	}
	if got := quietOps(nil); got != nil {
		t.Errorf("quietOps(nil) = %v", got)
	}
}

func TestPassWindow(t *testing.T) {
	ops := []int64{1, 2, 3, 10, 20}
	if got := (&passData{}).window(ops); got != 36 {
		t.Errorf("one client back to back: window %d, want 36", got)
	}
	// Two clients side by side: the slower one sets the window.
	if got := (&passData{serial: []int{3, 2}}).window(ops); got != 30 {
		t.Errorf("two clients: window %d, want 30", got)
	}
	// Open loop: the last op's due time plus its latency.
	if got := (&passData{dueTailNs: 1000}).window(ops); got != 1020 {
		t.Errorf("open loop: window %d, want 1020", got)
	}
}

// A slow stretch must not reach the timing metrics wherever each
// operation also ran once on a quiet core, while counts still must match
// across all passes.
func TestSummariseTakesQuietestSamples(t *testing.T) {
	mk := func(slow func(j int) bool) *passData {
		p := &passData{recoveryNs: 5e6}
		for j := 0; j < 40; j++ {
			d := int64(1e6)
			if slow(j) {
				d = 3e6
			}
			p.commitNs = append(p.commitNs, d)
			p.windowNs += d
			p.cpuNs += d
		}
		p.exact = exactCounts{tweets: 4000, commits: 40, stateBytes: 2048, tweetAcc: 0.9, userAcc: 0.8}
		return p
	}
	// Every pass is slow somewhere, no operation is slow everywhere.
	passes := []*passData{
		mk(func(j int) bool { return j < 20 }),
		mk(func(j int) bool { return j >= 20 }),
		mk(func(j int) bool { return j%2 == 0 }),
		mk(func(j int) bool { return false }),
	}
	passes[3].recoveryNs = 4e6
	s := summarise(passes)
	if got := s.values["batch_p50_ms"]; got != 1 {
		t.Errorf("batch_p50_ms = %v, want 1 (slow samples leaked in)", got)
	}
	if got, want := s.values["tweets_per_s"], 4000/0.04; math.Abs(got-want) > 1e-6 {
		t.Errorf("tweets_per_s = %v, want %v", got, want)
	}
	if got, want := s.values["cpu_ms_per_ktweet"], 40.0/4; math.Abs(got-want) > 1e-9 {
		t.Errorf("cpu_ms_per_ktweet = %v, want %v (the quietest pass)", got, want)
	}
	if got := s.values["recovery_ms"]; got != 4 {
		t.Errorf("recovery_ms = %v, want 4", got)
	}
	// Three passes took 80 ms and one 40 ms, against a quiet 40 ms.
	if got := s.values["noise.all_over_quiet"]; math.Abs(got-1.75) > 1e-9 {
		t.Errorf("noise.all_over_quiet = %v, want 1.75", got)
	}
	if got := s.values["state_kb"]; got != 2 {
		t.Errorf("state_kb = %v, want 2", got)
	}
	// 160 samples pooled over the passes: the p95 has eight beyond it and
	// must not be printed.
	if got, ok := s.values["batch_p95_ms"]; ok {
		t.Errorf("batch_p95_ms = %v printed from 160 samples", got)
	}
	// Nothing read and nothing on disk: those pairs do not exist.
	for _, name := range []string{"read_p50_us", "read_p99_us", "disk_bytes_per_tweet"} {
		if got, ok := s.values[name]; ok {
			t.Errorf("%s = %v on a workload without it", name, got)
		}
	}
	if len(s.problems) != 0 {
		t.Errorf("identical counts reported as differing: %v", s.problems)
	}
	passes[1].exact.stateBytes++
	if s := summarise(passes); len(s.problems) != 1 {
		t.Errorf("a pass with a different snapshot size gave %d problems, want 1", len(s.problems))
	}
}

// The number of passes follows from -seconds alone.
func TestPassCount(t *testing.T) {
	for _, w := range workloads {
		if _, ok := passSeconds[w]; !ok {
			t.Errorf("no calibrated pass length for %s", w)
		}
		if got := passCount(w, 0.2); got != minPasses {
			t.Errorf("passCount(%s, 0.2) = %d, want the minimum %d", w, got, minPasses)
		}
		if a, b := passCount(w, 20), passCount(w, 40); b < 2*a-1 || b > 2*a+1 {
			t.Errorf("passCount(%s) = %d at 20 s and %d at 40 s", w, a, b)
		}
	}
	n := 0
	passes, err := runPasses(5, func() (*passData, error) { n++; return &passData{}, nil })
	if err != nil || n != 5 || len(passes) != 5 {
		t.Errorf("runPasses(5) made %d passes, returned %d, %v", n, len(passes), err)
	}
}

// A pass sets itself up setupRepeats times, tears down all but the last
// and leaves the collector as it found it.
func TestTimedSetup(t *testing.T) {
	before := debug.SetGCPercent(100)
	defer debug.SetGCPercent(before)
	made, torn := 0, []int{}
	got, ns, err := timedSetup(
		func() (int, error) {
			made++
			if debug.SetGCPercent(-1) != -1 {
				t.Error("the collector runs while a set-up is timed")
			}
			time.Sleep(time.Duration(made) * 10 * time.Millisecond)
			return made, nil
		},
		func(n int) { torn = append(torn, n) })
	if err != nil || got != setupRepeats || made != setupRepeats {
		t.Errorf("timedSetup = %d, %v after %d set-ups; want the last of %d", got, err, made, setupRepeats)
	}
	if want := []int{1}; !slices.Equal(torn, want) {
		t.Errorf("tore down %v, want %v", torn, want)
	}
	// The first set-up slept 10 ms, the second 20 ms: the quietest wins.
	if ns < int64(10*time.Millisecond) || ns >= int64(20*time.Millisecond) {
		t.Errorf("timedSetup took %v, want the first set-up's 10 ms", time.Duration(ns))
	}
	if gc := debug.SetGCPercent(100); gc != 100 {
		t.Errorf("timedSetup left GOGC at %d", gc)
	}
	if _, _, err := timedSetup(func() (int, error) { return 0, os.ErrNotExist }, func(int) {}); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("a failed set-up returned %v", err)
	}
	if gc := debug.SetGCPercent(100); gc != 100 {
		t.Errorf("a failed set-up left GOGC at %d", gc)
	}
}

// fakeClock is the injected clock of runSchedule: sleeping and serving
// both just advance it.
type fakeClock struct{ t time.Duration }

func (c *fakeClock) now() time.Duration    { return c.t }
func (c *fakeClock) sleep(d time.Duration) { c.t += d }

func TestOpenLoopStallInflatesLaterOps(t *testing.T) {
	const msec = time.Millisecond
	clk := &fakeClock{}
	due := make([]time.Duration, 8)
	for i := range due {
		due[i] = time.Duration(i) * 10 * msec
	}
	// Every op takes 1 ms to serve, except op 2, on which the server
	// stalls for 50 ms.
	r := runSchedule(due, func(i int) error {
		if i == 2 {
			clk.t += 50 * msec
		} else {
			clk.t += msec
		}
		return nil
	}, clk.now, clk.sleep)
	wantLatency := []time.Duration{1, 1, 50, 41, 32, 23, 14, 5}
	wantLate := []time.Duration{0, 0, 0, 40, 31, 22, 13, 4}
	for i := range due {
		if r.latency[i] != wantLatency[i]*msec {
			t.Errorf("op %d latency %v, want %v", i, r.latency[i], wantLatency[i]*msec)
		}
		if r.late[i] != wantLate[i]*msec {
			t.Errorf("op %d late %v, want %v", i, r.late[i], wantLate[i]*msec)
		}
	}
	// When op 3 is finally sent (t = 70 ms), ops 4..7 are already due.
	if r.backlogMax != 4 {
		t.Errorf("backlogMax = %d, want 4", r.backlogMax)
	}
	if r.failed != 0 {
		t.Errorf("failed = %d", r.failed)
	}
}

func TestProcParsers(t *testing.T) {
	status := []byte("Name:\ttriclustd\nVmPeak:\t  999 kB\nVmHWM:\t   43008 kB\nVmRSS:\t 100 kB\n")
	if v, err := parseProcKey(status, "VmHWM"); err != nil || v != 43008 {
		t.Errorf("VmHWM = %d, %v", v, err)
	}
	io := []byte("rchar: 1\nwchar: 2\nread_bytes: 3\nwrite_bytes: 8192\ncancelled_write_bytes: 0\n")
	if v, err := parseProcKey(io, "write_bytes"); err != nil || v != 8192 {
		t.Errorf("write_bytes = %d, %v", v, err)
	}
	if _, err := parseProcKey(io, "missing"); err == nil {
		t.Error("parseProcKey found a key that is not there")
	}
}

// The CPU-time clock of a process read by pid is the clock getrusage
// reads for this one.
func TestPidCPU(t *testing.T) {
	spin := time.Now()
	for time.Since(spin) < 20*time.Millisecond {
	}
	before := selfCPU()
	cpu, err := pidCPU(os.Getpid())
	after := selfCPU()
	if err != nil {
		t.Fatal(err)
	}
	// getrusage rounds to microseconds.
	if cpu < before-time.Millisecond || cpu > after+time.Millisecond || cpu < 20*time.Millisecond {
		t.Errorf("pidCPU(self) = %v, getrusage says %v before and %v after", cpu, before, after)
	}
	if _, err := pidCPU(4194303); err == nil {
		t.Error("pidCPU of a process that does not exist reported no error")
	}
}

// Children + self = parent: the shadow's layer spans are the children of
// the engine's own span, and what they leave over is its self time. The
// run must fail when they do not fit, or when the shadow as a whole costs
// something else than the engine's call.
func TestCheckShadow(t *testing.T) {
	total := map[string]int64{
		"engine.process": 1000, "shadow.batch": 1040,
		"text.tokenize": 50, "tgraph.build": 100, "core.solve": 800, "conform.score": 10,
		"engine.label": 30, // the engine's own work: not a layer below it
	}
	r := &result{values: map[string]float64{}, fullSize: true}
	checkShadow(r, total)
	if got := r.values["trace.accounted_share"]; got != 0.96 {
		t.Errorf("trace.accounted_share = %v, want 0.96", got)
	}
	if got := r.values["noise.trace_overhead"]; got != 1.04 {
		t.Errorf("noise.trace_overhead = %v, want 1.04", got)
	}
	if len(r.problems) != 0 {
		t.Errorf("a shadow that fits failed: %v", r.problems)
	}
	lc := &layerCounts{tweets: 1000, batches: 1}
	layerValues(r.values, total, lc)
	if got := r.values["engine.self_us_per_ktweet"]; got != 0.04 {
		t.Errorf("engine.self_us_per_ktweet = %v, want 0.04 (parent 1000 ns − children 960 ns)", got)
	}

	for name, bump := range map[string]map[string]int64{
		"layers exceed the parent": {"core.solve": 1000},
		"shadow too slow":          {"shadow.batch": 1200},
		"shadow skips work":        {"shadow.batch": 800},
	} {
		bad := map[string]int64{}
		for k, v := range total {
			bad[k] = v
		}
		for k, v := range bump {
			bad[k] = v
		}
		r := &result{values: map[string]float64{}, fullSize: true}
		checkShadow(r, bad)
		if len(r.problems) != 1 {
			t.Errorf("%s: %d problems, want 1: %v", name, len(r.problems), r.problems)
		}
	}
}

func TestTracerNests(t *testing.T) {
	tr := newTracer()
	root := tr.begin("root", 7)
	child := tr.begin("child", 7)
	tr.end(child)
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[0].Parent != -1 || tr.spans[1].Batch != 7 {
		t.Errorf("spans = %+v", tr.spans)
	}
	if s := tr.spans[1]; s.Start < tr.spans[0].Start || s.End > tr.spans[0].End {
		t.Errorf("child %+v not inside root %+v", s, tr.spans[0])
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Seconds   int      `json:"run_seconds"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// The names and units this program prints are the ones BENCHMARK.json
// declares, in both lists, and the workloads are the same four.
func TestBenchmarkFileMatchesRegistry(t *testing.T) {
	bf := loadBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloads)
	}
	var e2e, layer []metric
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metric{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, metric{m.Name, m.Unit})
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("end_to_end differs:\n file    %v\n program %v", e2e, endToEnd)
	}
	if !slices.Equal(layer, perLayer) {
		t.Errorf("per_layer differs:\n file    %v\n program %v", layer, perLayer)
	}
}

// A 1/20-scale run of the library workloads, untraced and traced: every
// metric of the run's list is printed exactly once with its unit, the
// last line is the result object with exactly those metrics, and the
// shadow pipeline reproduces Topic.Process's labels.
func TestLibraryWorkloadsSmoke(t *testing.T) {
	for _, name := range []string{"online_replay", "offline_refit"} {
		for _, trace := range []bool{false, true} {
			o := options{seed: 3, seconds: 0.2, trace: trace, scale: 20}
			r, err := runWorkload(nil, name, o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if len(r.problems) != 0 || r.failed != 0 {
				t.Errorf("%s trace=%v: failed %d, problems %v", name, trace, r.failed, r.problems)
			}
			var out bytes.Buffer
			if !report(&out, r, trace) {
				t.Errorf("%s trace=%v: report says the run failed", name, trace)
			}
			list := endToEnd
			if trace {
				list = perLayer
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			for _, m := range list {
				seen := 0
				for _, line := range lines[:len(lines)-1] {
					f := strings.Fields(line)
					if len(f) == 3 && f[0] == m.name && f[2] == m.unit {
						seen++
					}
				}
				// A pair the workload does not have is not printed.
				want := 0
				if _, ok := r.values[m.name]; ok {
					want = 1
				}
				if seen != want {
					t.Errorf("%s trace=%v: %s printed %d times with unit %s, want %d", name, trace, m.name, seen, m.unit, want)
				}
			}
			var last struct {
				Correct   bool                  `json:"correct"`
				Attempted int                   `json:"attempted"`
				Failed    int                   `json:"failed"`
				Metrics   map[string]metricLine `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result object: %v", name, trace, err)
			}
			if !last.Correct || last.Attempted < 1 || last.Failed != 0 || len(last.Metrics) != len(list) {
				t.Errorf("%s trace=%v: result %+v", name, trace, last)
			}
			for _, m := range list {
				if got, ok := last.Metrics[m.name]; !ok || got.Unit != m.unit {
					t.Errorf("%s trace=%v: result lacks %s in %s", name, trace, m.name, m.unit)
				}
			}
			if !trace {
				for _, m := range endToEnd {
					if r.values[m.name] <= 0 {
						t.Errorf("%s: %s = %v, want > 0", name, m.name, r.values[m.name])
					}
				}
				continue
			}
			// The workloads separate the layers as designed.
			if name == "offline_refit" && r.values["text.tokenize_us_per_ktweet"] != 0 {
				t.Errorf("offline_refit tokenized: %v us/ktweet", r.values["text.tokenize_us_per_ktweet"])
			}
			if name == "online_replay" && r.values["text.tokenize_us_per_ktweet"] <= 0 {
				t.Error("online_replay did not tokenize")
			}
			if r.values["core.solve_us_per_ktweet"] <= 0 || r.values["tgraph.build_us_per_ktweet"] <= 0 {
				t.Errorf("%s: solve %v, graph build %v", name, r.values["core.solve_us_per_ktweet"], r.values["tgraph.build_us_per_ktweet"])
			}
			if len(r.spans) == 0 {
				t.Errorf("%s: the traced run kept no spans", name)
			}
		}
	}
}
