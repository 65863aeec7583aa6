package bench

import (
	"errors"
	"slices"
	"sync"
	"time"

	"pimzdtree/internal/obs"
	"pimzdtree/internal/serve"
)

// LoadStats is a load run's outcome: requests completed, shed by
// admission control and failed, and the completed requests' end-to-end
// latency quantiles (nearest rank).
type LoadStats struct {
	Completed   int     `json:"completed"`
	Shed        int     `json:"shed"`
	Errors      int     `json:"errors"`
	LastError   string  `json:"last_error,omitempty"`
	AchievedRPS float64 `json:"achieved_rps"`
	P50         float64 `json:"p50_seconds"`
	P99         float64 `json:"p99_seconds"`
	P999        float64 `json:"p999_seconds"`
}

// tally collects a load run's outcomes as they happen, from any goroutine:
// ClosedLoop counts in one, and the saturate panel summarizes each replayed
// step through one.
type tally struct {
	mu         sync.Mutex
	shed, errs int
	lastErr    string
	lat        []float64 // seconds, one per completed request
	// stages sums, per op, the stage decompositions the server echoed.
	stages [serve.OpBox + 1]struct {
		n    int
		sums [serve.NumStages]float64
	}
}

// complete records a completed request and its latency.
func (t *tally) complete(r *serve.Request, lat time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lat = append(t.lat, lat.Seconds())
	if r.Resp.StageNanos == ([serve.NumStages]int64{}) {
		return // no decomposition echoed
	}
	st := &t.stages[r.Op]
	st.n++
	for s, ns := range r.Resp.StageNanos {
		st.sums[s] += float64(ns) / 1e9
	}
}

// refuse records a shed request (shed) or a failed one.
func (t *tally) refuse(err error, shed bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if shed {
		t.shed++
		return
	}
	t.errs++
	t.lastErr = err.Error()
}

// stats summarizes the tally of a run that took seconds.
func (t *tally) stats(seconds float64) LoadStats {
	slices.Sort(t.lat)
	return LoadStats{
		Completed: len(t.lat), Shed: t.shed, Errors: t.errs, LastError: t.lastErr,
		AchievedRPS: float64(len(t.lat)) / seconds,
		P50:         obs.Quantile(t.lat, 0.50),
		P99:         obs.Quantile(t.lat, 0.99),
		P999:        obs.Quantile(t.lat, 0.999),
	}
}

// Doer is a synchronous serving client: serve.Client (binary TCP) or
// serve.HTTPClient (JSON).
type Doer interface {
	Do(r *serve.Request) error
	Close() error
}

// ClosedLoop runs Workers clients that each wait for a response before
// drawing their next request, so offered load self-throttles at
// saturation. A shed request (an Overloaded *serve.WireError) counts as
// shed, any other refusal as an error; a transport error also ends its
// worker, whose connection it poisons.
type ClosedLoop struct {
	Workers  int
	Count    int           // requests per worker; 0 runs for Duration
	Duration time.Duration // run length when Count is 0
	RPS      float64       // per-worker pacing cap; 0 sends as fast as responses return
	Seed     int64         // worker w draws Stream(Seed + w*1297)
	Dial     func(w int) (Doer, error)
}

// LoadReport is a closed-loop run's outcome, with per-op means of the
// stage decompositions the server echoed (every request carries an ID).
type LoadReport struct {
	Seconds float64 `json:"seconds"`
	LoadStats
	OpStages map[string]StageSummary `json:"op_stages,omitempty"`
}

// StageSummary is one op's mean seconds per pipeline stage over the
// requests that echoed a decomposition.
type StageSummary struct {
	Count            int                `json:"count"`
	MeanSeconds      map[string]float64 `json:"mean_seconds"`
	TotalMeanSeconds float64            `json:"total_mean_seconds"`
}

// Run drives t's streams, one per worker, into one tally.
func (c ClosedLoop) Run(t *serve.Traffic) LoadReport {
	var all tally
	var wg sync.WaitGroup
	start := time.Now()
	for w := range c.Workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.work(w, t.Stream(c.Seed+int64(w)*1297), start.Add(c.Duration), &all)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := LoadReport{Seconds: elapsed.Seconds(), LoadStats: all.stats(elapsed.Seconds()), OpStages: map[string]StageSummary{}}
	for op, st := range all.stages {
		if st.n == 0 {
			continue
		}
		sum := StageSummary{Count: st.n, MeanSeconds: make(map[string]float64, serve.NumStages)}
		for s, name := range serve.StageNames {
			sum.MeanSeconds[name] = st.sums[s] / float64(st.n)
			sum.TotalMeanSeconds += sum.MeanSeconds[name]
		}
		rep.OpStages[serve.Op(op).String()] = sum
	}
	return rep
}

// work is worker w's loop: draw, pace, send, count.
func (c ClosedLoop) work(w int, s *serve.Stream, stopAt time.Time, out *tally) {
	cl, err := c.Dial(w)
	if err != nil {
		out.refuse(err, false)
		return
	}
	defer cl.Close()
	var interval time.Duration
	if c.RPS > 0 {
		interval = time.Duration(float64(time.Second) / c.RPS)
	}
	next := time.Now()
	for i := 0; c.Count == 0 || i < c.Count; i++ {
		if c.Count == 0 && time.Now().After(stopAt) {
			return
		}
		if interval > 0 {
			time.Sleep(time.Until(next))
			next = next.Add(interval)
		}
		r := s.Next()
		// A nonzero ID makes the server echo the stage decomposition and
		// makes outliers greppable in /snapshot/slowrequests.
		r.ID = uint64(w)<<32 | uint64(i) + 1
		t0 := time.Now()
		var refused *serve.WireError
		switch err := cl.Do(r); {
		case err == nil:
			out.complete(r, time.Since(t0))
		case errors.As(err, &refused):
			out.refuse(err, refused.Overloaded())
		default:
			out.refuse(err, false)
			return
		}
	}
}
