package serve

import (
	"sync"
	"sync/atomic"
)

// intake is the admission stage: one mutex-guarded FIFO that client
// goroutines append to and the executor drains. The submit-side critical
// section is one append; the executor takes the lock once per drain
// however many requests queued. One queue keeps drains in arrival order,
// so a drain that takes a barrier also takes everything pushed before it.
//
// Admission control is sized in point-ops (see Request.opCount): when
// depth would exceed maxOps the submit sheds with ErrQueueFull instead of
// queueing unbounded backlog — under overload the server degrades to
// explicit 503s with bounded memory and bounded queue delay, not to an
// ever-growing latency cliff.
type intake struct {
	mu     sync.Mutex
	q      []*Request
	maxOps int64
	depth  atomic.Int64 // admitted-but-incomplete point-ops
	// notify wakes the executor (capacity 1: a poke, not a queue).
	notify chan struct{}
}

func newIntake(maxOps int64) *intake {
	return &intake{maxOps: maxOps, notify: make(chan struct{}, 1)}
}

// push enqueues r, shedding at capacity.
func (in *intake) push(r *Request) error {
	ops := r.opCount()
	if in.depth.Add(ops) > in.maxOps {
		in.depth.Add(-ops)
		return ErrQueueFull
	}
	in.mu.Lock()
	in.q = append(in.q, r)
	in.mu.Unlock()
	in.wake()
	return nil
}

// wake pokes the executor without blocking.
func (in *intake) wake() {
	select {
	case in.notify <- struct{}{}:
	default:
	}
}

// drain appends every queued request to dst in push order and returns the
// result. The drained ops leave the admission count only when their
// requests complete (releaseOps), so coalesced-but-unexecuted work still
// counts against the bound.
func (in *intake) drain(dst []*Request) []*Request {
	in.mu.Lock()
	dst = append(dst, in.q...)
	clear(in.q) // release for GC; keep capacity for reuse
	in.q = in.q[:0]
	in.mu.Unlock()
	return dst
}

// releaseOps returns completed point-ops to the admission budget.
func (in *intake) releaseOps(n int64) { in.depth.Add(-n) }

// queuedOps returns the current admission-control depth in point-ops.
func (in *intake) queuedOps() int64 { return in.depth.Load() }
