package serve

import "time"

// Request-lifecycle stage attribution. Every request is stamped with
// monotonic nanotime at each stage boundary of the serving pipeline:
//
//	admitted → enqueued → drained → plan-ready → fence-passed → executed → replied
//
// The deltas between consecutive boundaries are the six stages a
// request's wall time decomposes into:
//
//	admit  validation + intake push (Submit)
//	queue  waiting in the intake for the epoch in flight to end
//	build  the executor's cut of the drained requests into an epoch plan
//	fence  the executor's epoch pin of that plan
//	exec   the coalesced native tree batches (the backend's share)
//	reply  result scatter and completion bookkeeping
//
// Build and fence run back to back on the executor, so both read near
// zero: a request's wait for the engine is its queue stage.
//
// Stamps are plain int64 nanos in a fixed array on the Request, so the
// steady-state request path allocates nothing for them. Boundaries a
// request skips (failures mid-pipeline) inherit the previous boundary at
// finish time, so stage durations always sum exactly to total wall.

// Stage boundaries, in pipeline order.
const (
	bAdmitted = iota // Submit: validated, about to enter the intake
	bEnqueued        // intake accepted the request
	bDrained         // the executor drained it from the intake
	bPlanned         // its epoch plan was cut
	bFenced          // the executor pinned the plan's read epoch
	bExecuted        // its native tree batches returned
	bReplied         // response filled, waiter about to be released
	numBoundaries
)

// NumStages is the number of stage durations (boundary deltas).
const NumStages = numBoundaries - 1

// StageNames names each stage duration, index-aligned with
// Response.StageNanos and RequestRecord.StageSeconds.
var StageNames = [NumStages]string{"admit", "queue", "build", "fence", "exec", "reply"}

// bootTime anchors the monotonic clock: stamps are nanoseconds since
// process start, read via time.Since which uses the monotonic reading.
var bootTime = time.Now()

// nowNanos returns monotonic nanoseconds since process start.
// Allocation-free.
func nowNanos() int64 { return int64(time.Since(bootTime)) }

// stamp records boundary b if it has not been stamped yet (the first
// stamp wins).
func (r *Request) stamp(b int) {
	if r.ts[b] == 0 {
		r.ts[b] = nowNanos()
	}
}

// sealStamps fills skipped boundaries with their predecessor (so deltas
// are zero and the stage sum equals total wall) and returns the total
// wall seconds from admission to reply.
func (r *Request) sealStamps() float64 {
	for b := 1; b < numBoundaries; b++ {
		if r.ts[b] < r.ts[b-1] {
			r.ts[b] = r.ts[b-1]
		}
	}
	return float64(r.ts[bReplied]-r.ts[bAdmitted]) / 1e9
}

// stageSeconds returns stage s's duration in seconds (call after
// sealStamps).
func (r *Request) stageSeconds(s int) float64 {
	return float64(r.ts[s+1]-r.ts[s]) / 1e9
}

// stampAll stamps boundary b on every request of a slice.
func stampAll(reqs []*Request, b int) {
	if len(reqs) == 0 {
		return
	}
	now := nowNanos()
	for _, r := range reqs {
		if r.ts[b] == 0 {
			r.ts[b] = now
		}
	}
}
