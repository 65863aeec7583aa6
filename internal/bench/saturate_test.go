package bench

import (
	"reflect"
	"testing"
	"time"

	"pimzdtree/internal/core"
	"pimzdtree/internal/geom"
	"pimzdtree/internal/serve"
	"pimzdtree/internal/workload"
)

// saturateTestParams is the small size TestSaturateIgnoresHostSpeed
// replays at.
var saturateTestParams = Params{Seed: 42, WarmupN: 10_000, Dims: 3, P: 64}

// slowBackend stands for a slow host: it spends 20 µs before every batch
// (spinning: a timer sleep would round up to the scheduler's tick and
// slow the test more than the host).
type slowBackend struct{ *serve.TreeBackend }

func stall() {
	for start := time.Now(); time.Since(start) < 20*time.Microsecond; {
	}
}

func (b slowBackend) SearchBatch(pts []geom.Point) []bool {
	stall()
	return b.TreeBackend.SearchBatch(pts)
}

func (b slowBackend) InsertBatch(pts []geom.Point) {
	stall()
	b.TreeBackend.InsertBatch(pts)
}

func (b slowBackend) DeleteBatch(pts []geom.Point) {
	stall()
	b.TreeBackend.DeleteBatch(pts)
}

func (b slowBackend) KNNBatch(pts []geom.Point, k int) [][]core.Neighbor {
	stall()
	return b.TreeBackend.KNNBatch(pts, k)
}

func (b slowBackend) BoxCountBatch(boxes []geom.Box) []int64 {
	stall()
	return b.TreeBackend.BoxCountBatch(boxes)
}

// TestSaturateIgnoresHostSpeed: a backend that stalls before every batch
// leaves every row unchanged. That is what makes the clock modeled: host
// time, however slow, never moves an arrival, an epoch cut or a latency.
func TestSaturateIgnoresHostSpeed(t *testing.T) {
	p := saturateTestParams
	p.fill()
	data := workload.Uniform(p.Seed, p.WarmupN, p.Dims)
	traffic := serve.NewTraffic(data, workload.QueryBoxes(p.Seed+1, data, 64, 32), serve.DefaultMix, 8, 0)
	sweep := func(mode string, slow bool) []SaturateRow {
		tree := newRawPIMRunner(p, core.ThroughputOptimized, data).tree
		var b serve.Backend = serve.NewTreeBackend(tree)
		if slow {
			b = slowBackend{serve.NewTreeBackend(tree)}
		}
		rp := serve.NewReplay(serve.Config{Backend: b},
			func() float64 { return tree.System().Metrics().TotalSeconds() }, mode == "fifo")
		return saturateSweep(rp, mode, traffic, p.Seed, []float64{16000})
	}
	for _, mode := range []string{"fifo", "pipeline"} {
		want, got := sweep(mode, false), sweep(mode, true)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s rows changed under a slow backend:\nfast %+v\nslow %+v", mode, want, got)
		}
	}
}

// TestSustainedJudgesRealizedArrivals: a step is judged against the rate
// its requests actually arrived at, so a short Poisson draw that the
// engine kept up with is sustained.
func TestSustainedJudgesRealizedArrivals(t *testing.T) {
	for _, tc := range []struct {
		name       string
		st         LoadStats
		arrivalRPS float64
		want       bool
	}{
		// Nominal 500 r/s, but the draw came in at 461 r/s: kept up.
		{"short draw kept up", LoadStats{Completed: 4000, AchievedRPS: 461}, 461, true},
		{"long draw kept up", LoadStats{Completed: 4000, AchievedRPS: 530}, 532, true},
		{"fell behind", LoadStats{Completed: 4000, AchievedRPS: 8258}, 16050, false},
		{"shed 1%", LoadStats{Completed: 3960, Shed: 40, AchievedRPS: 1000}, 1000, false},
		{"shed under 1%", LoadStats{Completed: 3961, Shed: 39, AchievedRPS: 1000}, 1000, true},
		{"nothing offered", LoadStats{}, 0, false},
	} {
		if got := sustained(tc.st, tc.arrivalRPS); got != tc.want {
			t.Errorf("%s: sustained(%+v, %.0f) = %v, want %v", tc.name, tc.st, tc.arrivalRPS, got, tc.want)
		}
	}
}
