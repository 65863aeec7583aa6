package serve

import (
	"errors"
	"fmt"

	"pimzdtree/internal/core"
	"pimzdtree/internal/geom"
	"pimzdtree/internal/obs"
)

// Op identifies a client operation.
type Op uint8

// Client operations. The zero value is invalid so uninitialized requests
// fail validation instead of silently becoming searches.
const (
	OpSearch Op = iota + 1
	OpInsert
	OpDelete
	OpKNN
	OpBox

	// opBarrier is engine-internal: it completes only after every request
	// admitted before it has completed, giving tests and the drain path a
	// deterministic epoch cut.
	opBarrier
)

// String names the op as the metrics label and wire protocol spell it.
func (o Op) String() string {
	switch o {
	case OpSearch:
		return "search"
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpKNN:
		return "knn"
	case OpBox:
		return "box"
	case opBarrier:
		return "barrier"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Sentinel errors a request can complete with. HTTP maps the first three
// to 503 (the client should back off and retry) and the wire protocol has
// a status code for each of them.
var (
	// ErrQueueFull is admission control: the intake queue is at capacity
	// and the request was shed instead of enqueued.
	ErrQueueFull = errors.New("serve: intake queue full")
	// ErrShuttingDown rejects requests submitted after shutdown began.
	ErrShuttingDown = errors.New("serve: engine shutting down")
	// ErrDrainDeadline completes requests still pending when the shutdown
	// drain deadline passes: they were accepted but not executed.
	ErrDrainDeadline = errors.New("serve: shutdown drain deadline exceeded")
	// ErrBackendPanic completes the requests of an epoch whose backend
	// call panicked: an internal error (HTTP 500, a non-OK wire frame),
	// not back-pressure — the engine keeps serving.
	ErrBackendPanic = errors.New("serve: internal error: backend panicked")
)

// BadRequestError reports malformed client input (wrong dimensionality,
// empty batch, out-of-range k). HTTP maps it to 400.
type BadRequestError struct{ Msg string }

func (e *BadRequestError) Error() string { return "serve: bad request: " + e.Msg }

// badReq builds a BadRequestError.
func badReq(format string, args ...any) error {
	return &BadRequestError{Msg: fmt.Sprintf(format, args...)}
}

// Request is one client operation: a batch of points (search, insert,
// delete, knn) or boxes (box count). Submit enqueues it; Done() delivers
// one token once the engine has filled Resp. A Request must not be reused
// (the TCP server's per-connection request is the one exception, see
// reuse).
type Request struct {
	Op    Op
	Pts   []geom.Point
	Boxes []geom.Box
	K     int // OpKNN only

	// ID is an optional client-chosen request ID (0 = none). The wire
	// protocol and HTTP API echo it in the response together with the
	// request's stage decomposition, and slow-request capture records it,
	// so a client-observed outlier is directly greppable in
	// /snapshot/slowrequests.
	ID uint64

	Resp Response

	// done has room for the one token complete sends per round trip, so
	// a request reused round trip after round trip keeps one channel.
	done chan struct{}

	// ts holds the monotonic stage-boundary stamps (see stages.go).
	ts [numBoundaries]int64

	// firstTrace is the flight trace of the first coalesced batch that
	// served the request (Resp.Trace carries the last).
	firstTrace uint64

	// Fan-out capture context, set by the executor while the serving
	// batch's report is still live (fanSpans aliases engine scratch and
	// is only read inside finish, where the tracer copies it if kept).
	fanMax    int32
	fanPruned int32
	fanSpans  []obs.FanoutSpan
}

// NewRequest builds a request with its completion channel armed (Submit
// arms a request built without it).
func NewRequest(op Op) *Request {
	return &Request{Op: op, done: make(chan struct{}, 1)}
}

// Done returns the completion channel. It delivers one token once Resp is
// filled, so exactly one waiter receives per round trip.
func (r *Request) Done() <-chan struct{} { return r.done }

// complete releases the waiter.
func (r *Request) complete() { r.done <- struct{}{} }

// reuse clears the request for its next round trip, keeping its
// completion channel and the capacity of its point, box and search answer
// buffers. The previous round trip must have completed: the engine no
// longer references the request, and its token has been received.
func (r *Request) reuse() {
	*r = Request{
		Pts:   r.Pts[:0],
		Boxes: r.Boxes[:0],
		Resp:  Response{Found: r.Resp.Found[:0]},
		done:  r.done,
	}
}

// trim drops the point, box and search answer buffers whose capacity
// exceeds keep items, so a request reused round trip after round trip
// does not pin the largest batch it ever carried.
func (r *Request) trim(keep int) {
	if cap(r.Pts) > keep {
		r.Pts = nil
	}
	if cap(r.Boxes) > keep {
		r.Boxes = nil
	}
	if cap(r.Resp.Found) > keep {
		r.Resp.Found = nil
	}
}

// opCount returns the number of point-operations the request admits into
// the queue (admission control is sized in ops, not requests, so one
// giant batch cannot starve a thousand small ones unaccounted).
func (r *Request) opCount() int64 {
	return int64(max(r.items(), 1)) // a barrier still occupies a slot
}

// items returns how many points (boxes for OpBox) the request contributes
// to its coalesced batch.
func (r *Request) items() int {
	if r.Op == OpBox {
		return len(r.Boxes)
	}
	return len(r.Pts)
}

// Response is the terminal state of a request. Exactly the fields for the
// request's Op are populated. Its slices are the caller's and nothing
// writes them again: Found is a fresh slice (the TCP server's reused
// request fills its own), and Neighbors and Counts are capped sub-slices
// of their native batch's answer, which the batch's other requests share.
type Response struct {
	Err error

	Found     []bool            // OpSearch: membership per point
	Applied   int               // OpInsert/OpDelete: points applied
	Neighbors [][]core.Neighbor // OpKNN: per query, sorted by distance
	Counts    []int64           // OpBox: stored points per box

	// ID is the client request ID the server echoed back (wire clients
	// only; 0 when the request carried none).
	ID uint64
	// Epoch is the update epoch the request observed: for reads, the
	// stable snapshot epoch the whole read phase ran against; for
	// updates, the epoch their batch published.
	Epoch uint64
	// Trace is the flight-recorder trace ID of the coalesced tree batch
	// that served this request (0 when tracing is off).
	Trace uint64
	// StageNanos is the request's stage decomposition (index-aligned
	// with StageNames): wall nanoseconds spent in each pipeline stage,
	// summing to the admitted→replied total.
	StageNanos [NumStages]int64
}

// validate rejects malformed requests before they reach the queue.
func (e *Engine) validate(r *Request) error {
	dims := e.cfg.Backend.Dims()
	switch r.Op {
	case OpSearch, OpInsert, OpDelete, OpKNN:
		if len(r.Pts) == 0 {
			return badReq("%s: empty point batch", r.Op)
		}
		if len(r.Boxes) != 0 {
			return badReq("%s: unexpected boxes", r.Op)
		}
		for i := range r.Pts {
			if r.Pts[i].Dims != dims {
				return badReq("%s: point %d has %d dims, index has %d", r.Op, i, r.Pts[i].Dims, dims)
			}
		}
		if r.Op == OpKNN && (r.K < 1 || r.K > e.cfg.MaxK) {
			return badReq("knn: k=%d outside [1, %d]", r.K, e.cfg.MaxK)
		}
	case OpBox:
		if len(r.Boxes) == 0 {
			return badReq("box: empty box batch")
		}
		if len(r.Pts) != 0 {
			return badReq("box: unexpected points")
		}
		for i := range r.Boxes {
			if r.Boxes[i].Lo.Dims != dims || r.Boxes[i].Hi.Dims != dims {
				return badReq("box %d: dims mismatch (index has %d)", i, dims)
			}
		}
	case opBarrier:
		// engine-internal, always valid
	default:
		return badReq("unknown op %d", uint8(r.Op))
	}
	return nil
}
