package serve

import (
	"context"
	"runtime"
	"testing"
	"time"

	"pimzdtree/internal/core"
	"pimzdtree/internal/costmodel"
	"pimzdtree/internal/metrics"
	"pimzdtree/internal/obs"
	"pimzdtree/internal/workload"
)

// TestTCPReadRoundTripAllocs is the allocation gate of a served read, wire
// to chunk scan and back: a warmed engine, observed the way pimzd-serve
// observes it (a streaming recorder feeding the registry, flight records,
// slow-request capture, SLO tracking), answering a 128-point search and a
// 16-point 16-NN request over one TCP connection. What a round trip may
// allocate is the answers handed out and nothing per point or per round:
// the tree's answer (one slice for a search, two for a kNN) and the
// client's decoded copy (likewise).
func TestTCPReadRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	reg, rec := metrics.New(), obs.New()
	rec.SetRetainEvents(false)
	rec.SetSink(metrics.NewObsSink(reg))
	rec.SetModuleSampling(32)
	flight := obs.NewFlightRecorder(obs.FlightConfig{Ring: 256, SlowK: 16})
	rec.SetFlight(flight)
	m := costmodel.UPMEMServer()
	m.PIMModules = 512
	data := workload.OSMLike(7, 100_000, 3)
	tr := core.New(core.Config{Dims: 3, Machine: m, Tuning: core.ThroughputOptimized, Obs: rec}, data)
	e := New(Config{Backend: NewTreeBackend(tr), Registry: reg, Flight: flight,
		Requests: NewRequestTracer(RequestTraceConfig{SlowK: 16}),
		SLO: metrics.NewSLOTracker(metrics.SLOConfig{Registry: reg, Objectives: []metrics.SLOObjective{
			{Op: "search", LatencySeconds: 0.050, Target: 0.99},
			{Op: "knn", LatencySeconds: 0.100, Target: 0.99},
		}})})
	srv, err := ServeTCP("127.0.0.1:0", e)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := DialTCP(srv.Addr(), 3)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cl.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		e.Shutdown(ctx)
		srv.Shutdown(ctx)
	})

	queries := workload.QueryPoints(8, data, 128+16)
	search := &Request{Op: OpSearch, Pts: queries[:128], ID: 1}
	knn := &Request{Op: OpKNN, Pts: queries[128:], K: 16, ID: 2}
	for _, c := range []struct {
		req    *Request
		budget float64
	}{{search, 2}, {knn, 4}} {
		do := func() {
			c.req.Resp = Response{}
			if err := cl.Do(c.req); err != nil {
				t.Fatalf("%s: %v", c.req.Op, err)
			}
		}
		// Warm: scratch, buffers, every metric series, and the flight
		// ring's 256 slots.
		for i := 0; i < 300; i++ {
			do()
		}
		n := testing.AllocsPerRun(64, do)
		t.Logf("warm TCP %s round trip: %.0f allocations", c.req.Op, n)
		if n > c.budget {
			t.Errorf("warm TCP %s round trip allocated %.2f times, want <= %.1f", c.req.Op, n, c.budget)
		}
	}
}
