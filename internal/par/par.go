// Package par provides the chunked data-parallel loop that backs every
// dense and sparse kernel in this repository.
//
// # Model
//
// A kernel is a row loop over [0, n). Run splits that range into at most
// Procs() contiguous chunks and executes them on a persistent pool of
// worker goroutines. The pool is sized to the parallelism width and reused
// across calls, so a multiplicative-update sweep that issues dozens of
// kernel launches pays the goroutine start-up cost once per process, not
// once per launch.
//
// Serial states when a loop is not split. A hot kernel asks it first and
// calls its row loop directly when it answers true, and only otherwise
// builds the closure it hands to Run:
//
//	if par.Serial(n, cost) {
//		rows(0, n)
//	} else {
//		par.Run(n, cost, func(_, lo, hi int) { rows(lo, hi) })
//	}
//
// A serial launch therefore allocates nothing, and a launch that fans out
// allocates its closure (plus whatever per-chunk partials a reduction
// sizes from Procs()).
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
// Chunk boundaries depend only on n and Procs(), never on scheduling, so
// kernels that reduce per-chunk partials in chunk order produce
// bit-identical results across runs at a fixed Procs() and results within
// floating-point reassociation error (≪ 1e-10 relative for the shapes
// used here) of the serial path.
//
// Nested or concurrent parallel regions are detected with an atomic guard
// and run serially inline, which keeps the pool deadlock-free without
// goroutine-local state.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// MinParallelWork is the minimum total scalar work (rows × costPerRow)
// before a loop is split across workers. See the package comment for the
// rationale.
const MinParallelWork = 64 * 1024

// procs holds the configured parallelism width; 0 selects
// runtime.GOMAXPROCS(0).
var procs atomic.Int64

// SetProcs sets the parallelism width used by Serial and Run. n ≤ 0
// restores the default (runtime.GOMAXPROCS(0)). Call it during startup,
// before kernels run: reductions size per-chunk storage from Procs() just
// before they launch, so changing the width mid-computation is not
// supported.
func SetProcs(n int) {
	if n < 0 {
		n = 0
	}
	procs.Store(int64(n))
}

// Procs returns the current parallelism width, always ≥ 1. No Run call
// uses more chunks than this.
func Procs() int {
	if p := int(procs.Load()); p > 0 {
		return p
	}
	return runtime.GOMAXPROCS(0)
}

// Serial reports whether a loop of n rows costing costPerRow each runs
// inline on the calling goroutine: the width is 1, the cost is unknown
// (< 1), or the total work is below MinParallelWork. It is the one
// statement of the fan-out rule; Run applies it too.
func Serial(n, costPerRow int) bool {
	return Procs() <= 1 || costPerRow < 1 || n*costPerRow < MinParallelWork
}

type task struct {
	fn     func(chunk, lo, hi int)
	chunk  int
	lo, hi int
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
				t.fn(t.chunk, t.lo, t.hi)
				wg.Done()
			}
		}()
		workers++
	}
}

// Run executes fn over [0, n) — split into parallel chunks unless Serial
// says otherwise or another region is in flight, inline as fn(0, 0, n)
// then. chunk is the deterministic chunk index, letting reductions
// accumulate into per-chunk storage without races; fn must treat disjoint
// row ranges independently. Run returns the number of chunks used (1 on
// the serial path, ≤ Procs() always).
func Run(n, costPerRow int, fn func(chunk, lo, hi int)) int {
	if n <= 0 {
		return 0
	}
	if Serial(n, costPerRow) || !active.CompareAndSwap(0, 1) {
		fn(0, 0, n)
		return 1
	}
	defer active.Store(0)

	chunks := min(Procs(), n)
	ensureWorkers(chunks - 1)
	wg.Add(chunks - 1)
	// Balanced split: chunk c covers [c·n/chunks, (c+1)·n/chunks), so
	// sizes differ by at most one row and no chunk is empty.
	for c := 0; c < chunks-1; c++ {
		workCh <- task{fn: fn, chunk: c, lo: c * n / chunks, hi: (c + 1) * n / chunks}
	}
	// The caller runs the final chunk itself, so even a saturated pool
	// makes forward progress.
	fn(chunks-1, (chunks-1)*n/chunks, n)
	wg.Wait()
	return chunks
}
