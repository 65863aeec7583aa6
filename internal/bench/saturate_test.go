package bench

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"pimzdtree/internal/core"
	"pimzdtree/internal/geom"
	"pimzdtree/internal/serve"
	"pimzdtree/internal/workload"
)

// saturateTestParams is the small size the saturate tests replay at.
var saturateTestParams = Params{Seed: 42, WarmupN: 10_000, Dims: 3, P: 64}

// TestSaturateSweepDeterministic replays a three-step sweep at a small
// size at GOMAXPROCS 1, 4 and 16 and requires byte-identical CSV, then
// checks the shape of what it shows: every step completes its requests
// without error, quantiles are monotone, both modes sustain the gentle
// first step, the FIFO mode collapses within the sweep and the pipeline
// sustains more. (TestModeledCSVIdenticalAcrossGOMAXPROCS runs the whole
// panel.)
func TestSaturateSweepDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var rows []SaturateRow
	var first []byte
	for _, procs := range []int{1, 4, 16} {
		runtime.GOMAXPROCS(procs)
		rows = saturate(saturateTestParams, []float64{500, 16000, 128000})
		var csv bytes.Buffer
		if err := SaturateCSV(&csv, rows); err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = csv.Bytes()
		} else if !bytes.Equal(first, csv.Bytes()) {
			t.Fatalf("CSV differs between GOMAXPROCS 1 and %d:\n%s", procs,
				diffLines(string(first), csv.String(), "1", fmt.Sprint(procs)))
		}
	}

	seen := map[string]int{}
	for i, r := range rows {
		if r.Completed+r.Shed != saturateRequests || r.Errors != 0 {
			t.Fatalf("row %d: %d completed + %d shed of %d, %d errors", i, r.Completed, r.Shed, saturateRequests, r.Errors)
		}
		if !(r.P50 > 0 && r.P50 <= r.P99 && r.P99 <= r.P999) {
			t.Fatalf("row %d: quantiles not monotone: %+v", i, r)
		}
		if seen[r.Mode] == 0 && !r.Sustained {
			t.Fatalf("%s does not sustain its first step: %+v", r.Mode, r)
		}
		seen[r.Mode]++
	}
	if last := rows[seen["fifo"]-1]; last.Mode != "fifo" || last.Sustained {
		t.Fatalf("the fifo mode never collapsed within the sweep: %+v", last)
	}
	if ms := maxSustained(rows); !(ms["pipeline"] > ms["fifo"]) {
		t.Fatalf("max sustained: pipeline %.0f r/s, fifo %.0f r/s", ms["pipeline"], ms["fifo"])
	}
}

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
