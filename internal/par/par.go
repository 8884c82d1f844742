// Package par provides the blocked data-parallel loop that backs every
// dense and sparse kernel in this repository.
//
// # Model
//
// A kernel is a row loop over [0, n). Blocks fixes how that range splits
// into contiguous blocks, and Run executes the blocks on a persistent pool
// of worker goroutines. The pool is sized to the parallelism width and
// reused across calls, so a multiplicative-update sweep that issues dozens
// of kernel launches pays the goroutine start-up cost once per process,
// not once per launch.
//
// A loop of one block is not split. A hot kernel asks Blocks first and
// calls its row loop directly when it answers 1, and only otherwise builds
// the closure it hands to Run:
//
//	if par.Blocks(n, cost) == 1 {
//		rows(0, n)
//	} else {
//		par.Run(n, cost, func(_, lo, hi int) { rows(lo, hi) })
//	}
//
// A one-block launch therefore allocates nothing, and a launch of several
// blocks allocates its closure (plus whatever per-block partials a
// reduction sizes from Blocks).
//
// # Threshold heuristic
//
// Handing a chunk to a worker costs on the order of a microsecond
// (channel send, wake-up, cache warm-up on another core). A kernel call
// is only split when its total scalar work — rows × costPerRow, where
// costPerRow approximates the flops per row (e.g. k² for an n×k × k×k
// product, nnz/rows·k for an SpMM) — reaches MinParallelWork. Below the
// threshold the loop runs inline on the calling goroutine, so the tiny
// k×k factor-core products of the tri-clustering solvers (k ∈ {2, 3})
// never pay parallel overhead, while the n×k and nnz-sized sweeps over tweets,
// users and features do get split. MinParallelWork = 64·1024 scalar ops
// ≈ tens of microseconds of arithmetic, an order of magnitude above the
// hand-off cost.
//
// # Determinism
//
// Block boundaries depend only on the loop's shape (n and costPerRow),
// never on Procs() or on what else is running; the width and the schedule
// only decide which goroutine runs which block. A reduction that keeps
// one partial per block and adds the partials in block order therefore
// has one summation tree, and produces the same bits at every width, run
// alone or beside other solves.
//
// Nested or concurrent parallel regions are detected with an atomic guard
// and run their blocks inline, in block order, which keeps the pool
// deadlock-free without goroutine-local state.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// MinParallelWork is the minimum total scalar work (rows × costPerRow)
// before a loop is split into blocks. See the package comment for the
// rationale.
const MinParallelWork = 64 * 1024

// procs holds the configured parallelism width; 0 selects
// runtime.GOMAXPROCS(0).
var procs atomic.Int64

// SetProcs sets the parallelism width Run fans out to. n ≤ 0 restores the
// default (runtime.GOMAXPROCS(0)). The width never changes a result, only
// how many goroutines share the blocks, so it may change at any time.
func SetProcs(n int) {
	if n < 0 {
		n = 0
	}
	procs.Store(int64(n))
}

// Procs returns the current parallelism width, always ≥ 1. No Run call
// uses more goroutines than this.
func Procs() int {
	if p := int(procs.Load()); p > 0 {
		return p
	}
	return runtime.GOMAXPROCS(0)
}

// splitBlocks is how many blocks a split loop has (n, if it has fewer
// rows). Run deals whole blocks to the goroutines, so the count sets the
// balance: 64 shares out evenly at widths 2, 4 and 8 and leaves the
// busiest goroutine at most 3 % over an even share at widths 3, 5 and 6
// (9 % at 7), while a reduction's per-block partials stay a fixed, small
// allocation whatever the loop's length.
const splitBlocks = 64

// Blocks returns the number of blocks nb a loop of n rows, each costing
// costPerRow scalar operations, splits into; block b covers
// [b·n/nb, (b+1)·n/nb). It is the one split rule: 1 when the cost is
// unknown (< 1) or the total work is below MinParallelWork, otherwise
// min(n, splitBlocks).
func Blocks(n, costPerRow int) int {
	if costPerRow < 1 || n*costPerRow < MinParallelWork {
		return 1
	}
	return min(n, splitBlocks)
}

type task struct {
	fn            func(block, lo, hi int)
	n, nb, b0, b1 int
}

// run calls fn on blocks [b0, b1) of the nb-block split of [0, n), in
// block order.
func (t task) run() {
	for b := t.b0; b < t.b1; b++ {
		t.fn(b, b*t.n/t.nb, (b+1)*t.n/t.nb)
	}
}

var (
	poolMu  sync.Mutex
	workCh  chan task
	workers int

	// active guards against nested/concurrent parallel regions: only one
	// Run may fan out at a time, the rest run inline. This keeps the
	// fixed-size pool deadlock-free (a worker never blocks waiting for a
	// chunk that only another busy worker could run), and it lets the one
	// region in flight count its chunks on a single WaitGroup.
	active atomic.Int32
	wg     sync.WaitGroup
)

func ensureWorkers(n int) {
	poolMu.Lock()
	defer poolMu.Unlock()
	if workCh == nil {
		workCh = make(chan task, 256)
	}
	for workers < n {
		go func() {
			for t := range workCh {
				t.run()
				wg.Done()
			}
		}()
		workers++
	}
}

// Run calls fn once for each of the Blocks(n, costPerRow) blocks of
// [0, n), with the block index and its row range; fn must treat disjoint
// row ranges independently. The blocks are dealt out in contiguous chunks
// to min(Procs(), nb) goroutines, or run inline in block order when there
// is one block, the width is 1, or another region is in flight.
func Run(n, costPerRow int, fn func(block, lo, hi int)) {
	if n <= 0 {
		return
	}
	nb := Blocks(n, costPerRow)
	chunks := min(Procs(), nb)
	if chunks <= 1 || !active.CompareAndSwap(0, 1) {
		task{fn: fn, n: n, nb: nb, b1: nb}.run()
		return
	}
	defer active.Store(0)

	ensureWorkers(chunks - 1)
	wg.Add(chunks - 1)
	// Chunk c runs blocks [c·nb/chunks, (c+1)·nb/chunks), so no chunk is
	// empty, and the caller runs the last chunk itself, so even a
	// saturated pool makes forward progress.
	for c := 0; c < chunks-1; c++ {
		workCh <- task{fn: fn, n: n, nb: nb, b0: c * nb / chunks, b1: (c + 1) * nb / chunks}
	}
	task{fn: fn, n: n, nb: nb, b0: (chunks - 1) * nb / chunks, b1: nb}.run()
	wg.Wait()
}
