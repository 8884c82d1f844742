package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files around that layer's exported functions. Spans of one batch share
// its identifier; Parent is the index of the span that caused this one.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"` // ns since the trace began
	End    int64  `json:"end"`
	Parent int    `json:"parent"` // -1 for a root
	Batch  int    `json:"batch"`
}

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine; open spans nest as a stack.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string, batch int) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Batch: batch})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	t.spans[id].End = int64(time.Since(t.t0))
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic("bench: span closed out of order")
	}
	t.open = t.open[:len(t.open)-1]
}

// span opens a span and returns the function that closes it. A nil
// tracer records nothing, which is how un-timed warm-up batches run
// through the same code as the traced ones.
func (t *tracer) span(name string, batch int) func() {
	if t == nil {
		return func() {}
	}
	id := t.begin(name, batch)
	return func() { t.end(id) }
}

// writeSpans writes the spans, keyed by workload, as one JSON object when
// the run ends.
func writeSpans(path string, spans map[string][]span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
