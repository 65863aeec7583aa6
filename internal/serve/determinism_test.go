package serve

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"pimzdtree/internal/core"
	"pimzdtree/internal/costmodel"
	"pimzdtree/internal/geom"
	"pimzdtree/internal/metrics"
	"pimzdtree/internal/obs"
	"pimzdtree/internal/workload"
)

// coalescedScenario runs a fixed request schedule through the engine's
// coalescing executor against a fully-instrumented tree and returns the
// modeled-only metrics exposition.
func coalescedScenario(t *testing.T) []byte {
	t.Helper()
	reg := metrics.New()
	rec := obs.New()
	rec.SetRetainEvents(false)
	rec.SetSink(metrics.NewObsSink(reg))

	m := costmodel.UPMEMServer()
	m.PIMModules = 64
	data := workload.Uniform(1234, 30000, 3)
	tr := core.New(core.Config{Dims: 3, Machine: m, Tuning: core.ThroughputOptimized, Obs: rec}, data[:25000])

	// No executor goroutine: the test cuts the plans. MaxBatch below the
	// epoch sizes so chunk splitting is exercised too.
	e := newEngine(Config{Backend: NewTreeBackend(tr), MaxBatch: 1024})

	mkSearch := func(pts []geom.Point) *Request {
		r := NewRequest(OpSearch)
		r.Pts = pts
		return r
	}
	mkKNN := func(pts []geom.Point, k int) *Request {
		r := NewRequest(OpKNN)
		r.Pts = pts
		r.K = k
		return r
	}

	queries := workload.QueryPoints(55, data[:25000], 3000)
	boxes := workload.QueryBoxes(56, data[:25000], 128, 32)

	// Epoch 1: a mixed read/update plan — many small client requests that
	// the executor coalesces into one search run (3 chunks), two kNN
	// k-groups, one box run, one insert run, one delete run.
	var plan1 []*Request
	for off := 0; off < 2400; off += 40 {
		plan1 = append(plan1, mkSearch(queries[off:off+40]))
	}
	plan1 = append(plan1, mkKNN(queries[:96], 4), mkKNN(queries[96:160], 8), mkKNN(queries[160:224], 4))
	box1 := NewRequest(OpBox)
	box1.Boxes = boxes
	plan1 = append(plan1, box1)
	for off := 25000; off < 28000; off += 500 {
		r := NewRequest(OpInsert)
		r.Pts = data[off : off+500]
		plan1 = append(plan1, r)
	}
	del1 := NewRequest(OpDelete)
	del1.Pts = data[100:600]
	plan1 = append(plan1, del1)
	e.runCut(plan1)

	// Epoch 2: reads over the epoch-1 mutations.
	var plan2 []*Request
	plan2 = append(plan2, mkSearch(data[25000:26000]), mkSearch(data[100:600]), mkKNN(queries[:64], 8))
	e.runCut(plan2)

	var buf bytes.Buffer
	if err := reg.WriteTextOpts(&buf, metrics.ExpoOpts{ModeledOnly: true}); err != nil {
		t.Fatalf("write modeled exposition: %v", err)
	}
	return buf.Bytes()
}

// TestCoalescedModeledDeterminism: the same coalesced request schedule
// must produce byte-identical modeled metrics at GOMAXPROCS 1, 4, and 16
// — the tree's internal parallelism must never leak into the modeled
// accounting, and coalescing must change only when batches form, never
// what they compute.
func TestCoalescedModeledDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var baseline []byte
	for _, procs := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
			got := coalescedScenario(t)
			if len(got) == 0 {
				t.Fatal("empty modeled exposition")
			}
			if baseline == nil {
				baseline = got
				return
			}
			if !bytes.Equal(baseline, got) {
				t.Errorf("modeled exposition diverged at GOMAXPROCS=%d:\nbaseline %d bytes, got %d bytes",
					procs, len(baseline), len(got))
			}
		})
	}
}
