package bench

import (
	"context"
	"testing"
	"time"

	"pimzdtree/internal/core"
	"pimzdtree/internal/geom"
	"pimzdtree/internal/serve"
	"pimzdtree/internal/workload"
)

func saturateTestEngine(t *testing.T, wrap func(*serve.TreeBackend) serve.Backend) (*serve.Engine, []geom.Point) {
	t.Helper()
	p := Params{Seed: 42, WarmupN: 10_000, Dims: 3, P: 64}
	p.fill()
	data := workload.Uniform(p.Seed, p.WarmupN, p.Dims)
	tb := serve.NewTreeBackend(newPIMRunner(p, core.ThroughputOptimized, data, nil).tree)
	var b serve.Backend = tb
	if wrap != nil {
		b = wrap(tb)
	}
	e := serve.New(serve.Config{Backend: b})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		e.Shutdown(ctx)
	})
	return e, data
}

func TestSaturationSweepSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	e, data := saturateTestEngine(t, nil)
	traffic := serve.NewTraffic(data, workload.QueryBoxes(9, data, 64, 32), serve.DefaultMix, 8, 0)

	rows := runSaturation(e.Submit, 1, traffic, []float64{200, 1000}, 250*time.Millisecond)
	if len(rows) != 2 {
		t.Fatalf("rows: %d", len(rows))
	}
	for i, pt := range rows {
		if pt.Completed == 0 {
			t.Fatalf("step %d completed nothing: %+v", i, pt)
		}
		if pt.Errors > 0 {
			t.Fatalf("step %d had %d request errors", i, pt.Errors)
		}
		if pt.P50 < 0 || pt.P99 < pt.P50 || pt.P999 < pt.P99 {
			t.Fatalf("step %d quantiles not monotone: %+v", i, pt)
		}
	}
	// An idle-capable engine must sustain the gentle first step.
	if !rows[0].Sustained {
		t.Fatalf("200 rps not sustained: %+v", rows[0])
	}
	if v := e.FenceViolations(); v != 0 {
		t.Fatalf("%d fence violations", v)
	}
}

// batchLog records the points of every search and insert batch the engine
// hands the tree, in execution order.
type batchLog struct {
	*serve.TreeBackend
	batches [][]geom.Point
}

func (b *batchLog) SearchBatch(pts []geom.Point) []bool {
	b.batches = append(b.batches, append([]geom.Point(nil), pts...))
	return b.TreeBackend.SearchBatch(pts)
}

func (b *batchLog) InsertBatch(pts []geom.Point) {
	b.batches = append(b.batches, append([]geom.Point(nil), pts...))
	b.TreeBackend.InsertBatch(pts)
}

// TestFIFODispatcherOneRequestPerEpoch pins what makes the saturate
// panel's fifo phase a baseline: behind the dispatcher the engine never
// coalesces — a burst of queued requests runs as one epoch and one tree
// batch each, in arrival order.
func TestFIFODispatcherOneRequestPerEpoch(t *testing.T) {
	var log *batchLog
	e, data := saturateTestEngine(t, func(tb *serve.TreeBackend) serve.Backend {
		log = &batchLog{TreeBackend: tb}
		return log
	})
	d := newFIFODispatcher(e)
	epochs0 := e.Stats().EpochsRun

	const n = 300
	reqs := make([]*serve.Request, n)
	for i := range reqs {
		op := serve.OpSearch
		if i%3 == 0 {
			op = serve.OpInsert
		}
		reqs[i] = serve.NewRequest(op)
		reqs[i].Pts = []geom.Point{data[i]}
		if err := d.submit(reqs[i]); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	d.stop()

	for i, r := range reqs {
		select {
		case <-r.Done():
		default:
			t.Fatalf("request %d not served when the dispatcher stopped", i)
		}
		if r.Resp.Err != nil {
			t.Fatalf("request %d: %v", i, r.Resp.Err)
		}
	}
	if got := e.Stats().EpochsRun - epochs0; got != n {
		t.Fatalf("%d requests ran in %d epochs, want one epoch each", n, got)
	}
	if len(log.batches) != n {
		t.Fatalf("%d requests ran as %d tree batches, want one batch each", n, len(log.batches))
	}
	for i, b := range log.batches {
		if len(b) != 1 || b[0] != data[i] {
			t.Fatalf("batch %d = %v, want the single point of request %d (%v): not arrival order", i, b, i, data[i])
		}
	}
}
