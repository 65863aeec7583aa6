package serve

import (
	"slices"
	"sync"
	"sync/atomic"
)

// intake is the admission stage: S finely-locked MPSC shards that client
// goroutines append to and the executor drains. Sharding keeps the
// submit-side critical section to an append under a shard-local mutex, so
// concurrent clients rarely contend; the executor takes each shard lock
// once per drain pass regardless of how many requests queued.
//
// Admission control is global and sized in point-ops (see
// Request.opCount): when depth would exceed maxOps the submit sheds with
// ErrQueueFull instead of queueing unbounded backlog — under overload the
// server degrades to explicit 503s with bounded memory and bounded queue
// delay, not to an ever-growing latency cliff.
type intake struct {
	shards []intakeShard
	maxOps int64
	depth  atomic.Int64 // queued point-ops across all shards
	rr     atomic.Uint64
	// notify wakes the executor (capacity 1: a poke, not a queue).
	notify chan struct{}
	// afterShard, when set, runs after a drain pass releases shard i: a
	// test seam for interleaving pushes with a drain. Nil in production.
	afterShard func(i int)
}

type intakeShard struct {
	mu sync.Mutex
	q  []*Request
	_  [40]byte // keep neighboring shard locks off one cache line
}

func newIntake(shards int, maxOps int64) *intake {
	return &intake{
		shards: make([]intakeShard, shards),
		maxOps: maxOps,
		notify: make(chan struct{}, 1),
	}
}

// push enqueues r round-robin across shards, shedding at capacity.
func (in *intake) push(r *Request) error {
	ops := r.opCount()
	if in.depth.Add(ops) > in.maxOps {
		in.depth.Add(-ops)
		return ErrQueueFull
	}
	s := &in.shards[in.rr.Add(1)%uint64(len(in.shards))]
	s.mu.Lock()
	s.q = append(s.q, r)
	s.mu.Unlock()
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

// drain appends every queued request to dst, each pass in shard order
// (stable FIFO within a shard), and returns the result. The drained ops leave the
// admission count only when their requests complete (releaseOps), so
// coalesced-but-unexecuted work still counts against the bound.
//
// push spreads requests round-robin, so a request pushed before a barrier
// can sit in a shard the pass had already left: a pass that takes a
// barrier is followed by another, which sees it. Barrier waits for its
// barrier, so a repeat finds barriers only from callers not in the plan.
func (in *intake) drain(dst []*Request) []*Request {
	for barrier := true; barrier; {
		from := len(dst)
		for i := range in.shards {
			s := &in.shards[i]
			s.mu.Lock()
			dst = append(dst, s.q...)
			clear(s.q) // release for GC; keep capacity for reuse
			s.q = s.q[:0]
			s.mu.Unlock()
			if in.afterShard != nil {
				in.afterShard(i)
			}
		}
		barrier = slices.ContainsFunc(dst[from:], func(r *Request) bool { return r.Op == opBarrier })
	}
	return dst
}

// releaseOps returns completed point-ops to the admission budget.
func (in *intake) releaseOps(n int64) { in.depth.Add(-n) }

// queuedOps returns the current admission-control depth in point-ops.
func (in *intake) queuedOps() int64 { return in.depth.Load() }
