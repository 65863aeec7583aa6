package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"pimzdtree/internal/costmodel"
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

// BenchmarkQueryPanel replicates one round of the tree-read workload's query
// panel in process: a 2M-point OSMLike tree on 2048 modules
// (ThroughputOptimized), then 16 384 searches (half of them stored points),
// 2 048 10-NN queries and 2 048 box counts of about 64 hits. One op is one
// round; besides ns/op it reports each query type's wall time per round.
// Run it with -benchtime 20x or so (the build takes seconds). For the host
// phases between the simulated rounds, add -cpuprofile and read
// groupByChunk, expandL0 and pointSink.gather off
// `go tool pprof -top -cum`; BenchmarkGroupByChunk and BenchmarkGather time
// the first and last in isolation.
func BenchmarkQueryPanel(b *testing.B) {
	data := workload.OSMLike(1, 2_000_000, 3)
	m := costmodel.UPMEMServer()
	m.PIMModules = 2048
	tr := New(Config{Dims: 3, Machine: m, Tuning: ThroughputOptimized}, data)
	rng := rand.New(rand.NewSource(2))
	search := workload.QueryPoints(3, data, 16384)
	for i := 0; i < len(search); i += 2 {
		search[i] = data[rng.Intn(len(data))]
	}
	knn := workload.QueryPoints(4, data, 2048)
	boxes := workload.QueryBoxes(5, data, 2048, 64)
	var ops [3]time.Duration
	round := func() {
		t0 := time.Now()
		tr.Search(search)
		t1 := time.Now()
		tr.KNN(knn, 10)
		t2 := time.Now()
		tr.BoxCount(boxes)
		t3 := time.Now()
		ops[0] += t1.Sub(t0)
		ops[1] += t2.Sub(t1)
		ops[2] += t3.Sub(t2)
	}
	round() // sizes the scratch
	ops = [3]time.Duration{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	b.StopTimer()
	for i, name := range []string{"search", "knn", "box"} {
		b.ReportMetric(ops[i].Seconds()*1e3/float64(b.N), name+"-ms")
	}
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

// BenchmarkGroupByChunk times the ways groupByChunk can group a frontier —
// the (rank, position) key sort, and the rank counting sort serial (p=1)
// and split across every worker — on random frontiers of a clustered tree,
// by frontier size and by how many ranks the tree has per frontier entry.
// It is where groupCountMin, groupCountSpan and groupForkGrain come from;
// run it at -cpu 1,2 (the forked rows need two workers or more).
func BenchmarkGroupByChunk(b *testing.B) {
	workers := runtime.GOMAXPROCS(0)
	for _, modules := range []int{64, 2048} {
		m := costmodel.UPMEMServer()
		m.PIMModules = modules
		data := workload.OSMLike(1, 400_000, 3)
		tr := New(Config{Dims: 3, Machine: m, Tuning: ThroughputOptimized}, data)
		var chunked []*Node
		var walk func(n *Node)
		walk = func(n *Node) {
			if n.Chunk != nil {
				chunked = append(chunked, n)
			}
			if !n.IsLeaf() {
				walk(n.Left)
				walk(n.Right)
			}
		}
		walk(tr.root)
		rng := rand.New(rand.NewSource(1))
		for n := 64; n <= 65536; n *= 2 {
			src := make([]entry, n)
			for i := range src {
				src[i] = entry{qi: int32(i), node: chunked[rng.Intn(len(chunked))]}
			}
			frontier := make([]entry, n)
			b.Run(fmt.Sprintf("ranks=%d/n=%d/sorted", tr.ranks, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(frontier, src)
					tr.groupBuf = tr.groupSorted(frontier, tr.groupBuf[:0])
				}
			})
			widths := []int{1}
			if workers > 1 {
				widths = append(widths, workers)
			}
			for _, p := range widths {
				b.Run(fmt.Sprintf("ranks=%d/n=%d/counting/p=%d", tr.ranks, n, p), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						copy(frontier, src)
						tr.groupBuf = tr.groupCounting(frontier, tr.groupBuf[:0], p)
					}
				})
			}
		}
	}
}

// BenchmarkGather times pointSink.gather serial (p=1) and split across
// every worker, by how many finds the sink holds: a sphere fetch's shape,
// 2 048 queries and about 32 finds per slot, slots filled round-robin by
// the workers. It is where gatherForkMin comes from; run it at -cpu 1,2.
func BenchmarkGather(b *testing.B) {
	const nq, perSlot = 2048, 32
	workers := runtime.GOMAXPROCS(0)
	rng := rand.New(rand.NewSource(1))
	pt := geom.P3(1, 2, 3)
	for total := 1024; total <= 262144; total *= 2 {
		var ps pointSink
		ps.reset()
		base := ps.extend(total / perSlot)
		for s := 0; s < total/perSlot; s++ {
			w := s % workers
			buf := ps.open(base+s, w)
			for j := 0; j < perSlot; j++ {
				*buf = append(*buf, foundPoint{qi: int32(rng.Intn(nq)), p: pt})
			}
			ps.close(base+s, w)
		}
		widths := []int{1}
		if workers > 1 {
			widths = append(widths, workers)
		}
		for _, p := range widths {
			b.Run(fmt.Sprintf("finds=%d/p=%d", total, p), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					ps.gatherOn(p, nq, false)
				}
			})
		}
	}
}
