package serve

import "errors"

// Replay drives an engine on a modeled clock instead of its executor
// goroutine. Arrivals carry modeled timestamps, an epoch lasts the modeled
// seconds its execution charged, and whatever arrived meanwhile is cut
// into the next epoch. Requests still pass through Submit (validation and
// admission control are the engine's own) and epochs through the
// executor's runCut, so a replay differs from serving only in its clock:
// the same seed yields the same epochs, latencies and answers at any
// GOMAXPROCS and at any host speed.
//
// One approximation: a request that arrives during an epoch is submitted
// when that epoch ends, after its requests released their admission ops.
type Replay struct {
	e     *Engine
	clock func() float64
	fifo  bool
}

// NewReplay builds an engine over cfg without its executor goroutine.
// clock reads the backend's modeled seconds so far, e.g. a tree's
// System().Metrics().TotalSeconds(). fifo cuts the oldest request alone
// (request-at-a-time service, one epoch and one tree batch per request)
// instead of everything that has arrived.
func NewReplay(cfg Config, clock func() float64, fifo bool) *Replay {
	return &Replay{e: newEngine(cfg), clock: clock, fifo: fifo}
}

// Replayed is one replay's outcome. Times are modeled seconds from the
// start of the run.
type Replayed struct {
	// Latency holds arrival to completion, one per completed request, in
	// completion order.
	Latency []float64
	// Shed counts requests admission control refused; Errors those
	// refused otherwise or completed with an error.
	Shed, Errors int
	// LastArrival is when the last request arrived, End when the last
	// epoch ended.
	LastArrival, End float64
}

// Run offers n requests drawn from s, arriving as a Poisson process at
// rate requests per modeled second, and runs epochs until all are served.
func (rp *Replay) Run(s *Stream, rate float64, n int) Replayed {
	var (
		out    Replayed
		now    float64 // the modeled clock
		next   = s.Gap(rate).Seconds()
		queue  []*Request // admitted and drained, in arrival order
		arrive []float64  // queue's arrival times
	)
	for sent := 0; ; {
		for ; sent < n && next <= now; sent++ {
			r := s.Next()
			switch err := rp.e.Submit(r); {
			case err == nil:
				arrive = append(arrive, next)
			case errors.Is(err, ErrQueueFull):
				out.Shed++
			default:
				out.Errors++
			}
			out.LastArrival = next
			next += s.Gap(rate).Seconds()
		}
		queue = rp.e.in.drain(queue)
		if len(queue) == 0 {
			if sent == n {
				break
			}
			now = next // idle until the next arrival
			continue
		}
		cut := len(queue)
		if rp.fifo {
			cut = 1
		}
		start := rp.clock()
		rp.e.runCut(queue[:cut])
		now += rp.clock() - start
		for i, r := range queue[:cut] {
			if r.Resp.Err != nil {
				out.Errors++
			} else {
				out.Latency = append(out.Latency, now-arrive[i])
			}
		}
		clear(queue[:cut]) // the requests are finished; do not pin them
		queue, arrive = queue[cut:], arrive[cut:]
	}
	out.End = now
	return out
}
