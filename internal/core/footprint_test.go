package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"pimzdtree/internal/geom"
	"pimzdtree/internal/parallel"
	"pimzdtree/internal/workload"
)

// Footprint gates: what a Tree keeps on the host heap besides the index
// itself. The build's scratch must be garbage when New returns, and batch
// scratch must follow batch size back down (scratch.go). Skipped under the
// race detector (`make race` runs every test with -race).

// scratchOf walks every slice reachable from the Tree's own fields — through
// nested structs, arrays, slices of slices and the update arenas, but not
// through nodes, chunks, the PIM system, maps or chunkGroups (views into
// frontier buffers counted elsewhere) — and returns the largest capacity
// found (with its field path) and the total bytes. Reflection keeps the
// census honest when a new scratch field is added.
func scratchOf(t *Tree) (maxCap int, where string, bytes int64) {
	var visit func(v reflect.Value, path string)
	visit = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				visit(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				visit(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
			}
		case reflect.Slice:
			if v.Cap() > maxCap {
				maxCap, where = v.Cap(), path
			}
			bytes += int64(v.Cap()) * int64(v.Type().Elem().Size())
			if v.Type().Elem() == reflect.TypeOf(chunkGroup{}) {
				return
			}
			switch v.Type().Elem().Kind() {
			case reflect.Struct, reflect.Slice, reflect.Array, reflect.Pointer:
				all := v.Slice(0, v.Cap()) // arenas park buffers past their length
				for i := 0; i < all.Len(); i++ {
					visit(all.Index(i), path+"[]")
				}
			}
		case reflect.Pointer:
			if v.IsNil() {
				return
			}
			switch v.Type().Elem() {
			case reflect.TypeOf(updateStats{}), reflect.TypeOf(chunkSink{}):
				visit(v.Elem(), path)
			}
		}
	}
	visit(reflect.ValueOf(t).Elem(), "Tree")
	return maxCap, where, bytes
}

func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func TestBuildKeepsNoBuildScratch(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are not meaningful under the race detector")
	}
	const n = 200_000
	pts := workload.OSMLike(3, n, 3)
	before := liveHeap()
	tr := New(testConfig(ThroughputOptimized), pts)
	perPoint := float64(liveHeap()-before) / n
	t.Logf("built tree keeps %.1f B/point", perPoint)
	// Measured 33.2–33.6 B/point (Go 1.24, linux/amd64): coordinate lanes
	// (12 B a point before size-class rounding) plus 0.21 nodes of 96 B a
	// point. The limit adds a margin of about 2.5 B.
	const limit = 36
	if perPoint > limit {
		t.Errorf("built tree keeps %.1f B/point of live heap, want <= %d", perPoint, limit)
	}
	if c, where, _ := scratchOf(tr); c >= n {
		t.Errorf("%s has capacity %d after New over %d points: build-sized scratch retained", where, c, n)
	}
	runtime.KeepAlive(tr)
	runtime.KeepAlive(pts)
}

func TestBulkInsertScratchIsReturned(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are not meaningful under the race detector")
	}
	rng := rand.New(rand.NewSource(5))
	base := randPoints(rng, 50_000, 3, 1<<20)
	bulk := randPoints(rng, 200_000, 3, 1<<20)
	small := randPoints(rng, 16, 3, 1<<20)

	// The reference never saw a bulk batch: same contents, built in one go.
	ref := New(testConfig(ThroughputOptimized), append(append([]geom.Point(nil), base...), bulk...))
	ref.Insert(small)
	_, _, refBytes := scratchOf(ref)

	tr := New(testConfig(ThroughputOptimized), base)
	tr.Insert(bulk)
	_, _, pinned := scratchOf(tr)
	tr.Insert(small)
	c, where, got := scratchOf(tr)
	t.Logf("scratch: %d B after the bulk insert, %d B after the small one (largest %s, cap %d), reference %d B",
		pinned, got, where, c, refBytes)
	// What remains is P-sized lanes and layout scratch sized by the tree,
	// which the reference has too; allow a byte per bulk point on top.
	if limit := refBytes + int64(len(bulk)); got > limit {
		t.Errorf("tree holds %d B of scratch after a 16-point insert (largest: %s, cap %d), want <= %d",
			got, where, c, limit)
	}
	if tr.scratchHigh != len(small) {
		t.Errorf("scratch high-water mark is %d after a %d-point batch", tr.scratchHigh, len(small))
	}
}

// Same-sized batches, and the benchmark's alternation of 16 384 searches,
// 2 048 kNN queries and 2 048 boxes, must never trip the release: scratch
// that is dropped and regrown every round is an allocation regression the
// per-op allocation gates would not see.
func TestAlternatingBatchesKeepScratch(t *testing.T) {
	pts := workload.OSMLike(7, 120_000, 3)
	tr := New(testConfig(ThroughputOptimized), pts)
	qs := workload.QueryPoints(8, pts, 16384)
	boxes := make([]geom.Box, 2048)
	for i := range boxes {
		lo := qs[i]
		boxes[i] = geom.NewBox(lo, geom.P3(lo.Coords[0]+1<<12, lo.Coords[1]+1<<12, lo.Coords[2]+1<<12))
	}
	high := 0
	step := func(name string, op func()) {
		op()
		if tr.scratchHigh < high {
			t.Fatalf("%s released scratch: high-water mark fell from %d to %d", name, high, tr.scratchHigh)
		}
		high = tr.scratchHigh
	}
	for round := 0; round < 3; round++ {
		step("search", func() { tr.Search(qs) })
		step("knn", func() { tr.KNN(qs[:2048], 10) })
		step("box", func() { tr.BoxCount(boxes) })
	}
	if high < len(qs) {
		t.Fatalf("high-water mark %d never reached the search batch size", high)
	}
}

// A leaf stores each point once, in its coordinate lanes, and a node keeps
// only what it cannot derive (no key array, no high box corner). The node
// itself must stay in the 96-byte size class.
func TestNodeSize(t *testing.T) {
	if size := unsafe.Sizeof(Node{}); size > 96 {
		t.Errorf("Node is %d bytes, want <= 96", size)
	}
}

// A query pass over every leaf must not leave per-point heap behind: no
// lazily built leaf copy, nothing cached on the nodes. Batch scratch, which
// has its own gates, is taken out of the comparison.
func TestQueryPassAddsNoPerPointHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are not meaningful under the race detector")
	}
	const n = 200_000
	pts := workload.OSMLike(3, n, 3)
	tr := New(testConfig(ThroughputOptimized), pts)
	tr.Search(pts[:8])
	_, _, scratch := scratchOf(tr)
	before := int64(liveHeap()) - scratch
	// A point box per stored point cuts through every leaf (a box that
	// contains a leaf's whole region is answered from its size).
	boxes := make([]geom.Box, n)
	for i, p := range pts {
		boxes[i] = geom.NewBox(p, p)
	}
	for i, c := range tr.BoxCount(boxes) {
		if c < 1 {
			t.Fatalf("box around stored point %d counts %d", i, c)
		}
	}
	boxes = nil
	tr.KNN(pts[:64], 16)
	tr.Search(pts[:8]) // a small batch ends the pass, as a server's next epoch would
	_, _, scratch = scratchOf(tr)
	grown := float64(int64(liveHeap())-scratch-before) / n
	t.Logf("a query pass over every leaf grows the live heap by %.2f B/point", grown)
	if grown > 1 {
		t.Errorf("a query pass over every leaf adds %.2f B/point of live heap, want <= 1", grown)
	}
	runtime.KeepAlive(tr)
	runtime.KeepAlive(pts)
}

// One kNN batch of queries far from the data sweeps whole clusters into the
// sphere sink and the final-filter arenas; the next small batch must let
// them go instead of pinning them until more kNN batches come along.
func TestFarKNNScratchIsReturned(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are not meaningful under the race detector")
	}
	const n = 200_000
	pts := workload.OSMLike(1, n, 3)
	far := workload.OSMLike(2, 512, 3)
	tr := New(testConfig(ThroughputOptimized), pts)
	_, _, built := scratchOf(tr)
	tr.KNN(far, 10)
	_, _, pinned := scratchOf(tr)
	tr.Search(far[:8])
	c, where, got := scratchOf(tr)
	t.Logf("scratch: %d B after New, %d B after the far kNN batch, %d B after an 8-point search (largest %s, cap %d)",
		built, pinned, got, where, c)
	if parallel.Oversized(c, n/4) {
		t.Errorf("%s keeps capacity %d after an 8-point search on a %d-point tree: more than the found-point allowance",
			where, c, n)
	}
	// The allowance is about one found point per stored point.
	if limit := built + n*int64(unsafe.Sizeof(foundPoint{})); got > limit {
		t.Errorf("tree holds %d B of scratch after an 8-point search, want <= %d", got, limit)
	}
}
