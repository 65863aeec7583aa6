package serve

import (
	"slices"
	"testing"
)

// TestRequestTracerCaptureRule drives the slow-request capture (offer
// over the shared obs.TopK) through every branch of its rule: the set
// fills to K, only a strictly slower request evicts the fastest one, a
// tie keeps the incumbent, and the snapshot is slowest first with ties by
// ascending capture sequence.
func TestRequestTracerCaptureRule(t *testing.T) {
	type kept struct {
		seq  uint64
		wall float64
	}
	for _, c := range []struct {
		name  string
		k     int
		walls []float64
		want  []kept
	}{
		{"fill", 3, []float64{1, 3, 2},
			[]kept{{2, 3}, {3, 2}, {1, 1}}},
		{"strictly greater evicts the minimum", 3, []float64{5, 1, 3, 4},
			[]kept{{1, 5}, {4, 4}, {3, 3}}},
		{"tie keeps the incumbent", 2, []float64{1, 2, 1},
			[]kept{{2, 2}, {1, 1}}},
		{"equal stream settles", 2, []float64{2, 2, 2, 2},
			[]kept{{1, 2}, {2, 2}}},
		{"snapshot ties by ascending seq", 3, []float64{1, 2, 1},
			[]kept{{2, 2}, {1, 1}, {3, 1}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			tr := NewRequestTracer(RequestTraceConfig{SlowK: c.k})
			for _, w := range c.walls {
				tr.offer(NewRequest(OpSearch), w)
			}
			d := tr.Snapshot()
			if d.Observed != int64(len(c.walls)) {
				t.Fatalf("observed %d, want %d", d.Observed, len(c.walls))
			}
			got := make([]kept, len(d.Slow))
			for i, r := range d.Slow {
				got[i] = kept{r.Seq, r.TotalSeconds}
			}
			if !slices.Equal(got, c.want) {
				t.Fatalf("kept %v, want %v", got, c.want)
			}
		})
	}
}
