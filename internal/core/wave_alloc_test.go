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
	// The []SearchResult it returns, plus the closures of the host phases
	// that fork at this batch size (a handful). The pre-router engine
	// allocated 146 times per batch here; anything scaling with waves or
	// chunk groups is a regression.
	if allocs > 1+6 {
		t.Errorf("steady-state Search allocated %.0f times per batch, want <= 7", allocs)
	}
	// A batch below every fork point allocates its answer alone.
	if allocs := testing.AllocsPerRun(5, func() { tr.Search(qs[:16]) }); allocs > 1 {
		t.Errorf("steady-state 16-query Search allocated %.0f times per batch, want 1", allocs)
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
	// The answer is two allocations (the lists and their one backing
	// array); the traces, candidate sets, bounds and filter arenas are
	// Tree scratch. What else a batch may allocate is the closures of the
	// host phases that fork at its size: a constant, nothing per query,
	// wave or group.
	if allocs > 2+14 {
		t.Errorf("steady-state KNN allocated %.0f times per batch, want <= 16", allocs)
	}
	// A serving-sized batch forks nothing: its answer is all it allocates.
	small := qs[:16]
	tr.KNN(small, 16)
	if allocs := testing.AllocsPerRun(5, func() { tr.KNN(small, 16) }); allocs > 2 {
		t.Errorf("steady-state 16-query KNN allocated %.0f times per batch, want 2", allocs)
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
	// The []int64 it returns plus the closures of the forked host phases;
	// the pre-router engine allocated ~1200 times per batch here.
	if allocs > 1+6 {
		t.Errorf("steady-state BoxCount allocated %.0f times per batch, want <= 7", allocs)
	}
	if allocs := testing.AllocsPerRun(5, func() { tr.BoxCount(boxes[:16]) }); allocs > 1 {
		t.Errorf("steady-state 16-box BoxCount allocated %.0f times per batch, want 1", allocs)
	}
}

// TestKNNResultListsAreCapped: a KNN answer's lists share one backing
// array, each capped at its own length, so a caller may append to one list
// and sort it in place (the cross-shard merge does both) without touching
// its neighbors' lists.
func TestKNNResultListsAreCapped(t *testing.T) {
	tr, qs, _ := allocTree(t, ThroughputOptimized)
	got := tr.KNN(qs[:8], 5)
	want := make([][]Neighbor, len(got))
	for i, ns := range got {
		if len(ns) != 5 || cap(ns) != len(ns) {
			t.Fatalf("list %d: len %d cap %d, want 5 and 5", i, len(ns), cap(ns))
		}
		want[i] = append([]Neighbor(nil), ns...)
	}
	far := Neighbor{Point: geom.P3(0, 0, 0), Dist: 0}
	got[3] = append(got[3], far, far)
	sortNeighbors(got[3], lessByDistPoint)
	if got[3][0] != far {
		t.Fatalf("appended neighbor not sorted first: %+v", got[3])
	}
	for i, ns := range got {
		if i == 3 {
			continue
		}
		for j := range ns {
			if ns[j] != want[i][j] {
				t.Fatalf("list %d changed at %d after list 3 was appended to and sorted: %+v, want %+v", i, j, ns[j], want[i][j])
			}
		}
	}
}
