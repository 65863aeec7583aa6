package bench

import (
	"context"
	"fmt"
	"io"
	"time"

	"pimzdtree/internal/core"
	"pimzdtree/internal/serve"
	"pimzdtree/internal/stats"
	"pimzdtree/internal/workload"
)

// Serving-engine saturation sweep: the same open-loop Poisson load is
// offered to a FIFO engine (one request per tree batch, the conventional
// request-at-a-time server) and to the epoch pipeline (coalesced batches,
// reads against the published snapshot). Each step reports achieved
// throughput, shed rate, and end-to-end latency quantiles; the headline
// is the ratio of the two modes' maximum sustained load.
//
// Unlike the figure panels this measures wall clock, not modeled PIM
// time, so it is deliberately NOT part of `-experiment all` and has no
// byte-stable golden CSV.

// SaturateRow is one (mode, offered-load) step of the sweep.
type SaturateRow struct {
	Mode       string
	OfferedRPS float64
	LoadStats
	Sustained bool
}

// saturateSteps is the offered-load sweep in requests/second. The top
// step is set well past what request-at-a-time execution can absorb so
// the FIFO curve visibly collapses while the pipeline keeps climbing.
var saturateSteps = []float64{500, 1000, 2000, 4000, 8000, 16000, 32000}

const saturateStepDuration = 400 * time.Millisecond

// submitFunc admits one request or sheds it; an admitted request's Done
// channel closes once it has been served.
type submitFunc func(*serve.Request) error

// fifoDispatcher is the request-at-a-time baseline: a bounded arrival
// queue in front of the same engine the pipeline phase uses, with exactly
// one request in flight. The engine's executor therefore never drains two
// requests at once — every request is its own epoch and its own tree
// batch, served in arrival order — so a sweep through the dispatcher and a
// sweep straight into the engine differ in batch formation only.
type fifoDispatcher struct {
	// queue is bounded like the engine's own admission control (point-ops;
	// the sweep sends one-point requests), so an overloaded baseline sheds
	// instead of queueing without limit.
	queue chan *serve.Request
	done  chan struct{}
}

func newFIFODispatcher(e *serve.Engine) *fifoDispatcher {
	d := &fifoDispatcher{queue: make(chan *serve.Request, 1<<16), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		for r := range d.queue {
			if err := e.Submit(r); err != nil {
				// The queue never holds an invalid request and nothing else
				// feeds or stops the engine: only a bug gets here, and
				// dropping r would hang whoever waits on it.
				panic(fmt.Sprintf("bench: fifo dispatcher: engine refused an admitted request: %v", err))
			}
			<-r.Done()
		}
	}()
	return d
}

// submit queues r behind every earlier arrival, shedding at capacity.
func (d *fifoDispatcher) submit(r *serve.Request) error {
	select {
	case d.queue <- r:
		return nil
	default:
		return serve.ErrQueueFull
	}
}

// stop serves what is queued and returns once the dispatcher has exited.
func (d *fifoDispatcher) stop() {
	close(d.queue)
	<-d.done
}

// Saturate sweeps both serving modes over identical fresh trees.
func Saturate(p Params) []SaturateRow {
	p.fill()
	var rows []SaturateRow
	for _, mode := range []string{"fifo", "pipeline"} {
		data := workload.Uniform(p.Seed, p.WarmupN, p.Dims)
		r := newPIMRunner(p, core.ThroughputOptimized, data, nil)
		traffic := serve.NewTraffic(data, workload.QueryBoxes(p.Seed+1, data, 256, 64), serve.DefaultMix, 8, 0)
		eng := serve.New(serve.Config{Backend: serve.NewTreeBackend(r.tree)})
		submit, stop := submitFunc(eng.Submit), func() {}
		if mode == "fifo" {
			d := newFIFODispatcher(eng)
			submit, stop = d.submit, d.stop
		}
		steps := runSaturation(submit, p.Seed, traffic, saturateSteps, saturateStepDuration)
		stop()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		eng.Shutdown(ctx)
		cancel()

		for i := range steps {
			steps[i].Mode = mode
		}
		rows = append(rows, steps...)
	}
	return rows
}

// Open-loop load generation. Arrivals follow a Poisson process at the
// offered rate — the generator does NOT wait for responses before the next
// arrival, so queueing delay cannot throttle the offered load (the classic
// closed-loop measurement bug that hides saturation). Each step records
// completed/shed counts and the end-to-end latency distribution. Requests
// and arrival gaps come from serve.DefaultMix's stream: one-point (one-box)
// requests, kNN at k = 8. Coalescing is the engine's job, not the client's.

// runSaturation offers each load step to submit in turn.
func runSaturation(submit submitFunc, seed int64, t *serve.Traffic, offered []float64, step time.Duration) []SaturateRow {
	rows := make([]SaturateRow, len(offered))
	for i, rps := range offered {
		rows[i] = runStep(submit, t.Stream(seed+int64(i)*7919), rps, step)
	}
	return rows
}

// pendingReq tracks an in-flight request's submit time.
type pendingReq struct {
	r     *serve.Request
	start time.Time
}

// runStep runs one offered-load step: a dispatcher submits on the
// Poisson schedule while a collector awaits completions, so waiting
// never delays arrivals.
func runStep(submit submitFunc, s *serve.Stream, rps float64, dur time.Duration) SaturateRow {
	// Sized past any step's arrival count (top step: 32k req/s for 0.4 s),
	// so handing a request to the collector never blocks the schedule.
	pending := make(chan pendingReq, 1<<16)
	t := tally{lat: make([]float64, 0, int(rps*dur.Seconds())+16)}
	collectorDone := make(chan struct{})
	go func() {
		defer close(collectorDone)
		for pr := range pending {
			<-pr.r.Done()
			if err := pr.r.Resp.Err; err != nil {
				t.refuse(err, false)
				continue
			}
			t.complete(pr.r, time.Since(pr.start))
		}
	}()

	start := time.Now()
	deadline := start.Add(dur)
	next := start
	for {
		now := time.Now()
		if now.After(deadline) {
			break
		}
		if now.Before(next) {
			time.Sleep(next.Sub(now))
		}
		r := s.Next()
		submitAt := time.Now()
		if err := submit(r); err != nil {
			t.refuse(err, true)
		} else {
			pending <- pendingReq{r: r, start: submitAt}
		}
		// Poisson arrivals: exponential inter-arrival, scheduled on an
		// absolute timeline so a slow submit bursts to catch up instead
		// of silently lowering the offered rate.
		next = next.Add(s.Gap(rps))
	}
	close(pending)
	<-collectorDone

	pt := SaturateRow{OfferedRPS: rps, LoadStats: t.stats(time.Since(start))}
	// Sustained: shedding stayed under 1% and completions kept up with
	// arrivals (>= 95%).
	if total := pt.Completed + pt.Shed + pt.Errors; total > 0 {
		pt.Sustained = float64(pt.Shed)/float64(total) < 0.01 && pt.AchievedRPS >= 0.95*pt.OfferedRPS
	}
	return pt
}

// maxSustained returns the highest sustained achieved rate per mode.
func maxSustained(rows []SaturateRow) map[string]float64 {
	out := map[string]float64{}
	for _, r := range rows {
		if r.Sustained && r.AchievedRPS > out[r.Mode] {
			out[r.Mode] = r.AchievedRPS
		}
	}
	return out
}

// RenderSaturate prints the sweep with the pipeline/FIFO capacity ratio.
func RenderSaturate(w io.Writer, rows []SaturateRow) {
	fmt.Fprintln(w, "Saturation: open-loop Poisson sweep, FIFO vs epoch pipeline")
	tb := stats.NewTable("mode", "offered r/s", "achieved r/s", "shed", "err", "p50 ms", "p99 ms", "p999 ms", "sustained")
	for _, r := range rows {
		sus := ""
		if r.Sustained {
			sus = "yes"
		}
		tb.AddRow(r.Mode, fmt.Sprintf("%.0f", r.OfferedRPS), fmt.Sprintf("%.0f", r.AchievedRPS),
			r.Shed, r.Errors,
			fmt.Sprintf("%.3f", r.P50*1e3), fmt.Sprintf("%.3f", r.P99*1e3), fmt.Sprintf("%.3f", r.P999*1e3), sus)
	}
	fmt.Fprint(w, tb)
	ms := maxSustained(rows)
	fmt.Fprintf(w, "max sustained: fifo %.0f r/s, pipeline %.0f r/s", ms["fifo"], ms["pipeline"])
	if ms["fifo"] > 0 {
		fmt.Fprintf(w, " (%.1fx)", ms["pipeline"]/ms["fifo"])
	}
	fmt.Fprintln(w)
}

// SaturateCSV emits the sweep.
func SaturateCSV(w io.Writer, rows []SaturateRow) error {
	out := make([][]string, len(rows))
	for i, r := range rows {
		sus := "0"
		if r.Sustained {
			sus = "1"
		}
		out[i] = []string{r.Mode, f(r.OfferedRPS), f(r.AchievedRPS),
			fmt.Sprint(r.Completed), fmt.Sprint(r.Shed), fmt.Sprint(r.Errors),
			f(r.P50), f(r.P99), f(r.P999), sus}
	}
	return writeCSV(w, []string{"mode", "offered_rps", "achieved_rps", "completed",
		"shed", "errors", "p50_seconds", "p99_seconds", "p999_seconds", "sustained"}, out)
}
