package core

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"pimzdtree/internal/geom"
	"pimzdtree/internal/workload"
)

// Micro-benchmarks for the core index operations (wall-clock of the
// simulator; the modeled-time benchmarks live in the repo-root
// bench_test.go).

func benchTree(b *testing.B, tuning Tuning, n int) (*Tree, *rand.Rand) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	tr := New(testConfig(tuning), randPoints(rng, n, 3, 1<<20))
	b.ResetTimer()
	return tr, rng
}

// BenchmarkBuild is the one-line local check for memory changes: besides
// ns/op and -benchmem's allocation totals it reports what a built tree
// keeps per point once the build's scratch is collected (retained-B/pt) and
// how far the heap rose while building (peak-heap-B/pt, HeapInuse sampled
// every millisecond, over the level before the build).
func BenchmarkBuild(b *testing.B) {
	const n = 200_000
	pts := randPoints(rand.New(rand.NewSource(1)), n, 3, 1<<20)
	var ms runtime.MemStats
	heap := func() uint64 { runtime.ReadMemStats(&ms); return ms.HeapInuse }
	var retained, peak uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		runtime.GC()
		base := heap()
		var top atomic.Uint64
		stop, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			var ms runtime.MemStats
			tick := time.NewTicker(time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					runtime.ReadMemStats(&ms)
					top.Store(max(top.Load(), ms.HeapInuse))
				}
			}
		}()
		b.StartTimer()
		tr := New(testConfig(ThroughputOptimized), pts)
		b.StopTimer()
		close(stop)
		<-done
		peak += max(top.Load(), heap()) - base
		runtime.GC()
		runtime.GC()
		retained += heap() - base
		runtime.KeepAlive(tr)
		b.StartTimer()
	}
	b.ReportMetric(float64(retained)/float64(b.N)/n, "retained-B/pt")
	b.ReportMetric(float64(peak)/float64(b.N)/n, "peak-heap-B/pt")
}

func BenchmarkSearchBatch(b *testing.B) {
	tr, rng := benchTree(b, ThroughputOptimized, 100_000)
	qs := randPoints(rng, 10_000, 3, 1<<20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Search(qs)
	}
	b.ReportMetric(float64(len(qs)*b.N)/b.Elapsed().Seconds()/1e6, "wallclock-Mq/s")
}

// BenchmarkSearchSmallBatch is the local wall-clock check for a served
// search request: 128-key batches, half stored points and half perturbed,
// on a clustered 200k-point tree. At this size every phase walks on the
// caller (no fork), and a round's groups hold one or two queries each.
func BenchmarkSearchSmallBatch(b *testing.B) {
	data := workload.OSMLike(1, 200_000, 3)
	tr := New(testConfig(ThroughputOptimized), data)
	rng := rand.New(rand.NewSource(3))
	batches := make([][]geom.Point, 64)
	for i := range batches {
		qs := make([]geom.Point, 128)
		for j := range qs {
			qs[j] = data[rng.Intn(len(data))]
			if j%2 == 1 {
				qs[j].Coords[j%3] ^= uint32(rng.Intn(1 << 12))
			}
		}
		batches[i] = qs
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Search(batches[i%len(batches)])
	}
	b.ReportMetric(float64(128*b.N)/b.Elapsed().Seconds()/1e6, "wallclock-Mq/s")
}

// updateBenchTree builds a warmed tree plus a batch, then runs one
// insert/delete cycle so the structure reaches its fixed point (split
// leaves stay split; re-inserting the batch refreshes them in place) and
// the Tree-owned update scratch (key/index buffers, merge arena, chunk sinks,
// diff lanes) is sized. What the loops below measure is the steady-state
// cost of one batch, not tree growth.
func updateBenchTree(b *testing.B) (*Tree, []geom.Point) {
	b.Helper()
	rng := rand.New(rand.NewSource(2))
	tr := New(testConfig(ThroughputOptimized), randPoints(rng, 100_000, 3, 1<<20))
	batch := randPoints(rng, 10_000, 3, 1<<20)
	tr.Insert(batch)
	tr.Delete(batch)
	tr.Insert(batch)
	tr.Delete(batch)
	return tr, batch
}

func BenchmarkInsertBatch(b *testing.B) {
	tr, batch := updateBenchTree(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Insert(batch)
		b.StopTimer()
		tr.Delete(batch) // restore the base contents off the clock
		b.StartTimer()
	}
}

func BenchmarkDeleteBatch(b *testing.B) {
	tr, batch := updateBenchTree(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tr.Insert(batch)
		b.StartTimer()
		tr.Delete(batch)
	}
}

func BenchmarkKNN10(b *testing.B) {
	tr, rng := benchTree(b, ThroughputOptimized, 100_000)
	qs := randPoints(rng, 1_000, 3, 1<<20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.KNN(qs, 10)
	}
}

func BenchmarkBoxCount(b *testing.B) {
	tr, rng := benchTree(b, SkewResistant, 100_000)
	boxes := make([]geom.Box, 1000)
	for i := range boxes {
		lo := geom.P3(rng.Uint32()%(1<<20), rng.Uint32()%(1<<20), rng.Uint32()%(1<<20))
		boxes[i] = geom.NewBox(lo, geom.P3(lo.Coords[0]+1<<14, lo.Coords[1]+1<<14, lo.Coords[2]+1<<14))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.BoxCount(boxes)
	}
}

// BenchmarkSearchWaves and BenchmarkKNNWaves isolate the steady-state wave
// engine: the tree and batch are fixed and the scratch is warmed before the
// timer, so ns/op and allocs/op (-benchmem) track the CSR router's routing
// cost and scratch reuse rather than tree construction.

func BenchmarkSearchWaves(b *testing.B) {
	tr, rng := benchTree(b, ThroughputOptimized, 100_000)
	qs := randPoints(rng, 10_000, 3, 1<<20)
	tr.Search(qs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Search(qs)
	}
	b.ReportMetric(float64(len(qs)*b.N)/b.Elapsed().Seconds()/1e6, "wallclock-Mq/s")
}

func BenchmarkKNNWaves(b *testing.B) {
	tr, rng := benchTree(b, ThroughputOptimized, 100_000)
	qs := randPoints(rng, 1_000, 3, 1<<20)
	tr.KNN(qs, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.KNN(qs, 10)
	}
	b.ReportMetric(float64(len(qs)*b.N)/b.Elapsed().Seconds()/1e6, "wallclock-Mq/s")
}

// BenchmarkBoxFetch measures the steady-state fetch path (fused lane
// filters plus per-query sinks); the first batch off the clock sizes the
// wave scratch so allocs/op is the per-batch output cost alone.
func BenchmarkBoxFetch(b *testing.B) {
	tr, rng := benchTree(b, SkewResistant, 100_000)
	boxes := make([]geom.Box, 500)
	for i := range boxes {
		lo := geom.P3(rng.Uint32()%(1<<20), rng.Uint32()%(1<<20), rng.Uint32()%(1<<20))
		boxes[i] = geom.NewBox(lo, geom.P3(lo.Coords[0]+1<<14, lo.Coords[1]+1<<14, lo.Coords[2]+1<<14))
	}
	tr.BoxFetch(boxes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.BoxFetch(boxes)
	}
	b.ReportMetric(float64(len(boxes)*b.N)/b.Elapsed().Seconds()/1e6, "wallclock-Mq/s")
}

// BenchmarkKNNSelect isolates the final-filter selection kernel: quickselect
// of the smallest m under the (Dist, Point) total order plus the small
// survivor sort, over a fixed candidate arena (the shape derive-sphere and
// final-filter run per query).
func BenchmarkKNNSelect(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	base := make([]Neighbor, 4096)
	for i := range base {
		base[i] = Neighbor{
			Point: geom.P3(rng.Uint32()%(1<<20), rng.Uint32()%(1<<20), rng.Uint32()%(1<<20)),
			Dist:  uint64(rng.Uint32()),
		}
	}
	arena := make([]Neighbor, len(base))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(arena, base)
		selectSmallest(arena, 16, lessByDistPoint)
		sortNeighbors(arena[:16], lessByDistPoint)
	}
}

func BenchmarkRelayout(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	tr := New(testConfig(SkewResistant), randPoints(rng, 200_000, 3, 1<<20))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.relayout()
	}
}
