package core

import (
	"math/rand"
	"runtime"
	"testing"

	"pimzdtree/internal/geom"
)

// Steady-state allocation gates for the batch update path, mirroring the
// wave-engine gates in wave_alloc_test.go. After a warm-up cycle has sized
// the Tree-owned update scratch (key and index buffers, arena-owned merge and
// delete buffers, chunk sinks, diff lanes) and the insert/delete fixed
// point is reached (split leaves stay split, so re-inserting the batch
// refreshes leaves in place), further batches must allocate only the
// genuinely new structure they create — for an insert/delete cycle of the
// same batch, close to nothing per leaf. The gates run at GOMAXPROCS=1,
// where the fork-join cutoffs keep the walks serial and arena-free.

// updateAllocTree builds a warmed tree plus a batch at the structural
// fixed point of insert/delete cycling.
func updateAllocTree(tb testing.TB) (*Tree, []geom.Point) {
	tb.Helper()
	rng := rand.New(rand.NewSource(11))
	tr := New(testConfig(ThroughputOptimized), randPoints(rng, 60_000, 3, 1<<20))
	batch := randPoints(rng, 6_000, 3, 1<<20)
	for i := 0; i < 2; i++ {
		tr.Insert(batch)
		tr.Delete(batch)
	}
	return tr, batch
}

func TestInsertSteadyStateAllocs(t *testing.T) {
	if runtime.GOMAXPROCS(0) != 1 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	tr, batch := updateAllocTree(t)
	allocs := testing.AllocsPerRun(5, func() {
		tr.Insert(batch)
		tr.Delete(batch)
	})
	// One full insert + delete cycle of a 6k batch. The remaining
	// allocations are the per-relayout chunk table (a *Chunk and a map
	// entry per live chunk — rebuilt from scratch by design) plus a
	// constant handful of recorder and round bookkeeping; before the
	// pooled leaf rebuilds this cycle allocated ~19k times (a merge
	// buffer and three leaf objects per touched leaf).
	if allocs > 2000 {
		t.Errorf("steady-state Insert+Delete cycle allocated %.0f times, want <= 2000", allocs)
	}
}

func TestDeleteSteadyStateAllocs(t *testing.T) {
	if runtime.GOMAXPROCS(0) != 1 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	tr, batch := updateAllocTree(t)
	tr.Insert(batch)
	half := batch[:len(batch)/2]
	tr.Delete(half)
	tr.Insert(half)
	allocs := testing.AllocsPerRun(5, func() {
		tr.Delete(half)
		tr.Insert(half)
	})
	// Delete edits leaves strictly in place, so the cycle's budget is the
	// same chunk-table rebuild floor as the insert gate.
	if allocs > 2000 {
		t.Errorf("steady-state Delete+Insert cycle allocated %.0f times, want <= 2000", allocs)
	}
}
