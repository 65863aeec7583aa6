package core

import (
	"math/rand"
	"runtime"
	"testing"

	"pimzdtree/internal/geom"
)

// Steady-state allocation gates for the push-pull wave engine. After the
// first batch has sized the Tree-owned router scratch (CSR arrays, per-group
// costs and exit slots, frontier ping-pong buffers), further batches must allocate
// only their user-visible outputs — nothing per wave. These tests pin that
// property so a regression that reintroduces per-wave maps or slices shows
// up as a test failure, not a slow harness.

// allocTree builds a warmed tree plus query sets sized so batches take
// several waves (multi-level L2 descent) on both tunings.
func allocTree(tb testing.TB, tuning Tuning) (*Tree, []geom.Point, []geom.Box) {
	tb.Helper()
	rng := rand.New(rand.NewSource(9))
	tr := New(testConfig(tuning), randPoints(rng, 60_000, 3, 1<<20))
	qs := randPoints(rng, 4_000, 3, 1<<20)
	boxes := make([]geom.Box, 500)
	for i := range boxes {
		lo := geom.P3(rng.Uint32()%(1<<20), rng.Uint32()%(1<<20), rng.Uint32()%(1<<20))
		boxes[i] = geom.NewBox(lo, geom.P3(lo.Coords[0]+1<<14, lo.Coords[1]+1<<14, lo.Coords[2]+1<<14))
	}
	return tr, qs, boxes
}

func TestSearchSteadyStateAllocs(t *testing.T) {
	if runtime.GOMAXPROCS(0) != 1 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	tr, qs, _ := allocTree(t, ThroughputOptimized)
	tr.Search(qs) // size the scratch
	allocs := testing.AllocsPerRun(5, func() { tr.Search(qs) })
	// One []SearchResult per batch plus a constant handful (semisort and
	// recorder bookkeeping). The pre-router engine allocated 146 times per
	// batch here; anything scaling with waves or chunk groups is a
	// regression.
	if allocs > 24 {
		t.Errorf("steady-state Search allocated %.0f times per batch, want <= 24", allocs)
	}
}

func TestKNNSteadyStateAllocs(t *testing.T) {
	if runtime.GOMAXPROCS(0) != 1 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	tr, qs, _ := allocTree(t, ThroughputOptimized)
	k := 5
	knnQs := qs[:512]
	tr.KNN(knnQs, k)
	allocs := testing.AllocsPerRun(5, func() { tr.KNN(knnQs, k) })
	// KNN's CPU stages allocate per query (result slices, candidate sets,
	// two sort.Slice calls, the per-batch bound/start arrays) — about 20
	// per query today, none per wave. The bound is per-query so a
	// reintroduced per-wave or per-group allocation (waves × groups easily
	// exceeds the slack) trips it.
	budget := 24*float64(len(knnQs)) + 256
	if allocs > budget {
		t.Errorf("steady-state KNN allocated %.0f times per batch, want <= %.0f", allocs, budget)
	}
}

func TestBoxFetchSteadyStateAllocs(t *testing.T) {
	if runtime.GOMAXPROCS(0) != 1 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	tr, _, boxes := allocTree(t, SkewResistant)
	tr.BoxFetch(boxes)
	allocs := testing.AllocsPerRun(5, func() { tr.BoxFetch(boxes) })
	// Fetch mode must allocate only its user-visible output: the result
	// and sink arrays plus each query's grown points slice (a handful of
	// growth steps per query). Anything scaling with waves or leaf visits
	// (e.g. a per-leaf closure or kernel buffer escaping) trips this.
	budget := 12*float64(len(boxes)) + 64
	if allocs > budget {
		t.Errorf("steady-state BoxFetch allocated %.0f times per batch, want <= %.0f", allocs, budget)
	}
}

func TestKNNSelectAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	base := make([]Neighbor, 2048)
	for i := range base {
		base[i] = Neighbor{
			Point: geom.P3(rng.Uint32()%(1<<20), rng.Uint32()%(1<<20), rng.Uint32()%(1<<20)),
			Dist:  uint64(rng.Uint32() % 4096), // force duplicate distances
		}
	}
	arena := make([]Neighbor, len(base))
	allocs := testing.AllocsPerRun(10, func() {
		copy(arena, base)
		selectSmallest(arena, 24, lessByDistPoint)
		sortNeighbors(arena[:24], lessByDistPoint)
	})
	// The selection kernel works fully in place over the arena.
	if allocs > 0 {
		t.Errorf("kNN selection allocated %.0f times, want 0", allocs)
	}
}

func TestBoxCountSteadyStateAllocs(t *testing.T) {
	if runtime.GOMAXPROCS(0) != 1 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	tr, _, boxes := allocTree(t, SkewResistant)
	tr.BoxCount(boxes)
	allocs := testing.AllocsPerRun(5, func() { tr.BoxCount(boxes) })
	// One []int64 result per batch plus a constant handful; the pre-router
	// engine allocated ~1200 times per batch here.
	if allocs > 24 {
		t.Errorf("steady-state BoxCount allocated %.0f times per batch, want <= 24", allocs)
	}
}
