package parallel

import "sync"

// slicePool is a per-size-class-free pool of slices: get returns a slice of
// length n (contents undefined — callers zero what they read before
// writing), reusing the largest pooled backing array when it fits. It keeps
// steady-state sort/semisort batches allocation-free without threading a
// Sorter through every call site.
type slicePool[T any] struct{ p sync.Pool }

func (sp *slicePool[T]) get(n int) []T {
	if v := sp.p.Get(); v != nil {
		s := *(v.(*[]T))
		if cap(s) >= n {
			return s[:n]
		}
	}
	return make([]T, n)
}

func (sp *slicePool[T]) put(s []T) {
	if cap(s) == 0 {
		return
	}
	s = s[:0]
	sp.p.Put(&s)
}

// Shared scratch pools for the sort, semisort, scan and filter paths.
var (
	u64Pool slicePool[uint64]
	i32Pool slicePool[int32]
	intPool slicePool[int]
)

// scratchSlack is the number of elements, beyond four times what the last
// batch used, that a grow-and-keep scratch buffer may stay allocated.
const scratchSlack = 1 << 14

// Oversized is the scratch-retention rule every grow-and-keep batch buffer
// follows: a buffer of the given capacity is more than a batch that used
// `used` elements of it may leave allocated when it exceeds
// 4*used+scratchSlack elements. One bulk batch, or one rare query that
// sweeps a dense cluster, must not pin megabytes under a caller that goes
// back to ten-point batches; the factor and the slack keep same-sized and
// alternating batch sizes from ever reallocating.
func Oversized(capacity, used int) bool {
	return capacity > 4*used+scratchSlack
}

// Keep returns buf for reuse, or nil when it is Oversized for the batch
// just served.
func Keep[T any](buf []T, used int) []T {
	if Oversized(cap(buf), used) {
		return nil
	}
	return buf
}

// Resize returns an n-element scratch slice (contents undefined): buf's
// array when it is large enough and not Oversized for n, else a fresh one.
func Resize[T any](buf []T, n int) []T {
	if buf = Keep(buf, n); cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
