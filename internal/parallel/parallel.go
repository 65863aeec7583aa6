// Package parallel provides the shared-memory parallel primitives the
// CPU-side phases of all three indexes are built on: parallel for,
// map/reduce, prefix sums, an LSD radix sort for Morton keys, and a
// semisort (group by key, used by the push-pull batching).
//
// The primitives follow the binary-forking style of the paper's CPU cost
// analysis: work is split recursively into goroutines down to a grain
// size, giving O(n) work and polylog span for the loops, scans and sorts.
// Every multi-pass primitive (sort, semisort, scan, filter) runs all of
// its passes block-parallel across workers, and the sort/semisort paths
// draw their scratch from per-size pools (or a caller-held Sorter) so
// that steady-state batches allocate nothing per call.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// grain is the sequential cutoff for recursive splitting. Small enough to
// expose parallelism on many-core hosts, large enough to amortize goroutine
// overhead.
const grain = 2048

// maxProcs returns the parallelism to use.
func maxProcs() int {
	return runtime.GOMAXPROCS(0)
}

// workersFor returns the worker count for a block-parallel pass over n
// elements: at most GOMAXPROCS, and with at least min elements per worker
// so tiny inputs stay sequential.
func workersFor(n, min int) int {
	p := maxProcs()
	if min > 0 && p > n/min {
		p = n / min
	}
	if p < 1 {
		p = 1
	}
	return p
}

// Workers returns the current worker-count ceiling (GOMAXPROCS). Callers
// that fork with BlocksN and keep per-worker accumulators size them with
// this so the partition matches the fork.
func Workers() int {
	return maxProcs()
}

// For runs body(i) for every i in [0, n) in parallel. See ForRange for the
// sequential cutoff.
func For(n int, body func(i int)) {
	ForRange(0, n, body)
}

// ForRange runs body(i) for every i in [lo, hi) in parallel using recursive
// binary splitting. The sequential cutoff (grain, 2048) is an element
// count chosen for cheap bodies — a key encode, a slot write: a range of
// up to 2048 indexes runs on the calling goroutine however expensive each
// body is. Loops over few, heavy items (module handlers, shards, queries
// with data-dependent cost) want ForDynamic instead.
func ForRange(lo, hi int, body func(i int)) {
	if hi-lo <= 0 {
		return
	}
	if hi-lo <= grain || maxProcs() == 1 {
		for i := lo; i < hi; i++ {
			body(i)
		}
		return
	}
	var wg sync.WaitGroup
	var rec func(lo, hi int)
	rec = func(lo, hi int) {
		for hi-lo > grain {
			mid := lo + (hi-lo)/2
			wg.Add(1)
			go func(l, h int) {
				defer wg.Done()
				rec(l, h)
			}(mid, hi)
			hi = mid
		}
		for i := lo; i < hi; i++ {
			body(i)
		}
	}
	rec(lo, hi)
	wg.Wait()
}

// Blocks partitions [0, n) into roughly equal chunks, one per worker, and
// runs body(worker, lo, hi) for each. Use when per-element closures are too
// fine-grained.
func Blocks(n int, body func(worker, lo, hi int)) {
	BlocksN(maxProcs(), n, body)
}

// BlocksN partitions [0, n) into exactly min(p, n) contiguous chunks and
// runs body(worker, lo, hi) for each, with worker < min(p, n). Multi-pass
// primitives use it with a fixed p so every pass sees the same partition.
func BlocksN(p, n int, body func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	if p > n {
		p = n
	}
	if p <= 1 {
		body(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < p; w++ {
		lo := w * n / p
		hi := (w + 1) * n / p
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			body(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}

// ForDynamic is the coarse-grained loop: body(worker, lo, hi) covers [0, n)
// in short runs of consecutive indexes that min(Workers(), n) goroutines —
// the caller is worker 0 — claim from a shared atomic cursor until none are
// left, so one expensive index (the hot cluster's module, the kNN query
// whose sphere sweeps it) delays its own run only, not a fixed 1/p share of
// the range. worker < Workers() is a stable scratch index: concurrent body
// calls never share one. Which worker gets which run is up to the
// scheduler, so anything order-sensitive must land in per-index slots.
//
// There is no sequential cutoff: every call with n > 1 above one proc
// forks, and whether the work pays for that (a few microseconds) is the
// caller's decision — it knows what an index costs, this package does not.
func ForDynamic(n int, body func(worker, lo, hi int)) {
	p := maxProcs()
	if p > n {
		p = n
	}
	if p <= 1 {
		if n > 0 {
			body(0, 0, n)
		}
		return
	}
	// Eight runs per worker bound the tail at 1/8 of a fair share.
	run := n / (8 * p)
	if run < 1 {
		run = 1
	}
	var cursor atomic.Int64
	claim := func(w int) {
		for {
			hi := int(cursor.Add(int64(run)))
			lo := hi - run
			if lo >= n {
				return
			}
			if hi > n {
				hi = n
			}
			body(w, lo, hi)
		}
	}
	var wg sync.WaitGroup
	wg.Add(p - 1)
	for w := 1; w < p; w++ {
		go func(w int) {
			defer wg.Done()
			claim(w)
		}(w)
	}
	claim(0)
	wg.Wait()
}

// Do runs the given thunks in parallel and waits for all of them; the
// two-argument case is the binary fork of the fork-join model. On a
// single-proc runtime the thunks run sequentially in argument order:
// forking there only adds preemption-dependent interleaving, which made
// the baseline LLC simulation (access-order-sensitive LRU) nondeterministic
// run to run.
func Do(thunks ...func()) {
	switch len(thunks) {
	case 0:
		return
	case 1:
		thunks[0]()
		return
	}
	if maxProcs() == 1 {
		for _, t := range thunks {
			t()
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(thunks) - 1)
	for _, t := range thunks[1:] {
		go func(f func()) {
			defer wg.Done()
			f()
		}(t)
	}
	thunks[0]()
	wg.Wait()
}

// Map applies f to every element of in, in parallel, returning the results.
func Map[T, U any](in []T, f func(T) U) []U {
	out := make([]U, len(in))
	For(len(in), func(i int) { out[i] = f(in[i]) })
	return out
}

// MapIndex applies f to every index/element pair.
func MapIndex[T, U any](in []T, f func(i int, v T) U) []U {
	out := make([]U, len(in))
	For(len(in), func(i int) { out[i] = f(i, in[i]) })
	return out
}

// Reduce combines the elements of in with the associative operation op,
// starting from identity. op must be associative; the reduction tree is
// unspecified.
func Reduce[T any](in []T, identity T, op func(a, b T) T) T {
	if len(in) == 0 {
		return identity
	}
	if len(in) <= grain {
		acc := identity
		for _, v := range in {
			acc = op(acc, v)
		}
		return acc
	}
	// partial is sized for exactly the worker count handed to BlocksN, so
	// partial[w] stays in range however GOMAXPROCS relates to len(in).
	p := maxProcs()
	if p > len(in)/grain+1 {
		p = len(in)/grain + 1
	}
	partial := make([]T, p)
	BlocksN(p, len(in), func(w, lo, hi int) {
		acc := identity
		for _, v := range in[lo:hi] {
			acc = op(acc, v)
		}
		partial[w] = acc
	})
	acc := identity
	for _, v := range partial {
		acc = op(acc, v)
	}
	return acc
}

// Sum adds up a slice of integers in parallel.
func Sum(in []int64) int64 {
	return Reduce(in, 0, func(a, b int64) int64 { return a + b })
}

// MaxInt64 returns the maximum of in, or identity for an empty slice.
func MaxInt64(in []int64, identity int64) int64 {
	return Reduce(in, identity, func(a, b int64) int64 {
		if a > b {
			return a
		}
		return b
	})
}

// Lanes is a reusable per-worker dense accumulator arena: W int64 lanes of
// one fixed width, handed out by worker index during a Blocks/BlocksN fan-
// out and summed lane-by-lane after the join. Because int64 addition is
// commutative and associative, the merged totals are identical to a serial
// accumulation no matter how the blocks were scheduled — which is what lets
// callers with byte-identical accounting requirements (the PIM-model update
// and layout passes) fork without atomics or mutexes. The backing array is
// retained across Reset calls, so steady-state passes allocate nothing.
type Lanes struct {
	width int
	buf   []int64
}

// Reset sizes the arena to workers lanes of the given width and zeroes it.
func (l *Lanes) Reset(workers, width int) {
	n := workers * width
	if cap(l.buf) < n {
		l.buf = make([]int64, n)
	}
	l.buf = l.buf[:n]
	for i := range l.buf {
		l.buf[i] = 0
	}
	l.width = width
}

// Lane returns worker w's dense accumulator slice.
func (l *Lanes) Lane(w int) []int64 {
	return l.buf[w*l.width : (w+1)*l.width]
}

// SumInto adds every lane into dst (len(dst) must equal the reset width),
// in ascending worker order.
func (l *Lanes) SumInto(dst []int64) {
	if len(dst) != l.width {
		panic("parallel: Lanes.SumInto width mismatch")
	}
	for w := 0; w*l.width < len(l.buf); w++ {
		lane := l.Lane(w)
		for i, v := range lane {
			dst[i] += v
		}
	}
}

// integer constrains the element types the scan primitives accept.
type integer interface {
	~int | ~int32 | ~int64
}

// scanInto writes the exclusive prefix sums of in to out (which may alias
// in) and returns the total. It is the blocked upsweep/downsweep scan: an
// upsweep of per-worker block sums, a serial scan over the p block sums,
// and a downsweep writing each block's running prefix.
func scanInto[I integer](in, out []I) I {
	n := len(in)
	p := workersFor(n, grain)
	if p <= 1 {
		var run I
		for i, v := range in {
			out[i] = run
			run += v
		}
		return run
	}
	var sums [256]I // p is capped by GOMAXPROCS, far below 256
	if p > len(sums) {
		p = len(sums)
	}
	BlocksN(p, n, func(w, lo, hi int) {
		var s I
		for _, v := range in[lo:hi] {
			s += v
		}
		sums[w] = s
	})
	var run I
	for w := 0; w < p; w++ {
		sums[w], run = run, run+sums[w]
	}
	BlocksN(p, n, func(w, lo, hi int) {
		run := sums[w]
		for i := lo; i < hi; i++ {
			v := in[i]
			out[i] = run
			run += v
		}
	})
	return run
}

// ExclusiveScan computes the exclusive prefix sum of in in parallel,
// returning the offsets slice (same length) and the total.
func ExclusiveScan(in []int) (offsets []int, total int) {
	offsets = make([]int, len(in))
	total = scanInto(in, offsets)
	return offsets, total
}

// ExclusiveScanInto writes the exclusive prefix sums of in into out, which
// must have the same length and may be in itself, and returns the total.
func ExclusiveScanInto(in, out []int) int {
	if len(in) != len(out) {
		panic("parallel: ExclusiveScanInto length mismatch")
	}
	return scanInto(in, out)
}

// Filter returns the elements of in satisfying keep, preserving order. The
// parallel path counts per worker, sizes the output by an exclusive scan
// over the counts, and writes each worker's survivors at its scan offset —
// no append-and-concat. keep must be pure: it runs twice per element.
func Filter[T any](in []T, keep func(T) bool) []T {
	if len(in) <= grain {
		var out []T
		for _, v := range in {
			if keep(v) {
				out = append(out, v)
			}
		}
		return out
	}
	p := workersFor(len(in), grain)
	counts := intPool.get(p)
	BlocksN(p, len(in), func(w, lo, hi int) {
		c := 0
		for _, v := range in[lo:hi] {
			if keep(v) {
				c++
			}
		}
		counts[w] = c
	})
	total := 0
	for w := 0; w < p; w++ {
		counts[w], total = total, total+counts[w]
	}
	out := make([]T, total)
	BlocksN(p, len(in), func(w, lo, hi int) {
		o := counts[w]
		for _, v := range in[lo:hi] {
			if keep(v) {
				out[o] = v
				o++
			}
		}
	})
	intPool.put(counts)
	return out
}
