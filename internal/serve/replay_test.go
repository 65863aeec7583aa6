package serve

import (
	"testing"

	"pimzdtree/internal/geom"
)

// batchLog records the points of every search and insert batch the engine
// hands the tree, in execution order.
type batchLog struct {
	*TreeBackend
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

// TestReplayFIFOCutOneRequestPerEpoch pins what makes the FIFO cut a
// request-at-a-time baseline: under a load that queues requests behind
// every epoch it never coalesces. Each request runs as one epoch and one
// tree batch, in arrival order. The pipeline cut over the same arrivals
// does coalesce.
func TestReplayFIFOCutOneRequestPerEpoch(t *testing.T) {
	mix, err := ParseMix("search=2,insert=1")
	if err != nil {
		t.Fatal(err)
	}
	const n, rate = 300, 1e6 // far past request-at-a-time capacity
	for _, fifo := range []bool{true, false} {
		tr, data := testTree(t, 5000)
		traffic := NewTraffic(data, nil, mix, 0, 0)
		log := &batchLog{TreeBackend: NewTreeBackend(tr)}
		rp := NewReplay(Config{Backend: log}, func() float64 { return tr.System().Metrics().TotalSeconds() }, fifo)

		res := rp.Run(traffic.Stream(7), rate, n)
		if len(res.Latency) != n || res.Shed != 0 || res.Errors != 0 {
			t.Fatalf("fifo=%v: %d completed, %d shed, %d errors; want %d, 0, 0", fifo, len(res.Latency), res.Shed, res.Errors, n)
		}
		if !(res.End > res.LastArrival && res.LastArrival > 0) {
			t.Fatalf("fifo=%v: last arrival %g s, end %g s", fifo, res.LastArrival, res.End)
		}
		epochs := rp.e.Stats().EpochsRun
		if !fifo {
			if epochs >= n/10 || len(log.batches) >= n/10 {
				t.Fatalf("pipeline ran %d requests in %d epochs and %d tree batches: no coalescing", n, epochs, len(log.batches))
			}
			continue
		}
		if epochs != n {
			t.Fatalf("%d requests ran in %d epochs, want one epoch each", n, epochs)
		}
		if len(log.batches) != n {
			t.Fatalf("%d requests ran as %d tree batches, want one batch each", n, len(log.batches))
		}
		// The same arrivals again, in Run's draw order: a gap, then each
		// request followed by the gap to the next.
		want := traffic.Stream(7)
		want.Gap(rate)
		for i, b := range log.batches {
			p := want.Next().Pts[0]
			want.Gap(rate)
			if len(b) != 1 || b[0] != p {
				t.Fatalf("batch %d = %v, want the single point of request %d (%v): not arrival order", i, b, i, p)
			}
		}
	}
}
