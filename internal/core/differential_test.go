package core

import (
	"math/rand"
	"testing"

	"pimzdtree/internal/geom"
	"pimzdtree/internal/morton"
	"pimzdtree/internal/workload"
	"pimzdtree/internal/zdtree"
)

// TestDifferentialAgainstSharedMemoryZdTree drives the PIM index and the
// shared-memory zd-tree through the same randomized operation sequence and
// requires identical answers for every query type. This is the strongest
// end-to-end check in the suite: the two implementations share no
// execution machinery (BSP waves + push-pull vs direct recursion).
func TestDifferentialAgainstSharedMemoryZdTree(t *testing.T) {
	for _, tuning := range []Tuning{ThroughputOptimized, SkewResistant} {
		t.Run(tuning.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(777))
			initial := randPoints(rng, 3000, 3, 1<<16)
			pimTree := New(testConfig(tuning), initial)
			oracle := zdtree.New(zdtree.Config{Dims: 3}, initial)
			live := append([]geom.Point(nil), initial...)

			for step := 0; step < 12; step++ {
				switch step % 4 {
				case 0: // insert
					batch := randPoints(rng, 400, 3, 1<<16)
					pimTree.Insert(batch)
					oracle.Insert(batch)
					live = append(live, batch...)
				case 1: // delete a random slice of live points
					if len(live) > 800 {
						start := rng.Intn(len(live) - 500)
						batch := append([]geom.Point(nil), live[start:start+300]...)
						pimTree.Delete(batch)
						oracle.Delete(batch)
						live = append(live[:start], live[start+300:]...)
					}
				case 2: // kNN cross-check
					qs := randPoints(rng, 15, 3, 1<<16)
					k := 1 + rng.Intn(12)
					got := pimTree.KNN(qs, k)
					for i, q := range qs {
						want := oracle.KNN(q, k, geom.L2)
						if len(got[i]) != len(want) {
							t.Fatalf("step %d q %d: %d vs %d results", step, i, len(got[i]), len(want))
						}
						for j := range want {
							if got[i][j].Dist != want[j].Dist {
								t.Fatalf("step %d q %d: dist[%d] %d vs %d",
									step, i, j, got[i][j].Dist, want[j].Dist)
							}
						}
					}
				case 3: // box cross-check
					boxes := make([]geom.Box, 10)
					for i := range boxes {
						lo := geom.P3(rng.Uint32()%(1<<16), rng.Uint32()%(1<<16), rng.Uint32()%(1<<16))
						boxes[i] = geom.NewBox(lo, geom.P3(
							lo.Coords[0]+rng.Uint32()%(1<<13),
							lo.Coords[1]+rng.Uint32()%(1<<13),
							lo.Coords[2]+rng.Uint32()%(1<<13)))
					}
					counts := pimTree.BoxCount(boxes)
					fetches := pimTree.BoxFetch(boxes)
					for i, b := range boxes {
						if want := int64(oracle.BoxCount(b)); counts[i] != want {
							t.Fatalf("step %d box %d: count %d vs %d", step, i, counts[i], want)
						}
						if int64(len(fetches[i])) != counts[i] {
							t.Fatalf("step %d box %d: fetch %d vs count %d",
								step, i, len(fetches[i]), counts[i])
						}
					}
				}
				whole := geom.NewBox(geom.P3(0, 0, 0), geom.P3(^uint32(0), ^uint32(0), ^uint32(0)))
				if want := oracle.BoxCount(whole); pimTree.Size() != want {
					t.Fatalf("step %d: sizes diverged %d vs %d", step, pimTree.Size(), want)
				}
				if err := pimTree.CheckInvariants(); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				if bad := pimTree.CheckCounterInvariant(); bad != nil {
					t.Fatalf("step %d: Lemma 3.1 violated (SC=%d Size=%d)", step, bad.SC, bad.Size)
				}
			}
		})
	}
}

// TestDifferentialOnSkewedData repeats the cross-check on OSM-like skew,
// where chunk shapes and push-pull behave very differently.
func TestDifferentialOnSkewedData(t *testing.T) {
	pts := workload.OSMLike(55, 8000, 3)
	pimTree := New(testConfig(SkewResistant), pts)
	oracle := zdtree.New(zdtree.Config{Dims: 3}, pts)

	qs := workload.QueryPoints(56, pts, 60)
	got := pimTree.KNN(qs, 7)
	for i, q := range qs {
		want := oracle.KNN(q, 7, geom.L2)
		for j := range want {
			if got[i][j].Dist != want[j].Dist {
				t.Fatalf("q %d dist[%d]: %d vs %d", i, j, got[i][j].Dist, want[j].Dist)
			}
		}
	}
	boxes := workload.QueryBoxes(57, pts, 40, 25)
	counts := pimTree.BoxCount(boxes)
	for i, b := range boxes {
		if want := int64(oracle.BoxCount(b)); counts[i] != want {
			t.Fatalf("box %d: %d vs %d", i, counts[i], want)
		}
	}
}

// TestHistoryIndependence: the PIM-zd-tree's logical structure (like the
// zd-tree's) must not depend on insertion order.
func TestHistoryIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	pts := randPoints(rng, 4000, 3, 1<<18)
	perm := append([]geom.Point(nil), pts...)
	rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })

	a := New(testConfig(ThroughputOptimized), pts)
	b := New(testConfig(ThroughputOptimized), perm[:1000])
	b.Insert(perm[1000:2500])
	b.Insert(perm[2500:])

	pa, pb := a.Points(), b.Points()
	if len(pa) != len(pb) {
		t.Fatalf("sizes %d vs %d", len(pa), len(pb))
	}
	for i := range pa {
		if !pa[i].Equal(pb[i]) {
			t.Fatalf("structure differs at %d", i)
		}
	}
}

// TestL0OnModulesMode forces L0 replication onto the modules (tiny cache
// budget) and checks that search still works and pays the expected round.
func TestL0OnModulesMode(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	pts := randPoints(rng, 30000, 3, 1<<20)
	cfg := testConfig(ThroughputOptimized)
	cfg.CacheBudget = 1 // force L0 onto the modules
	tr := New(cfg, pts)
	if !tr.l0OnModules {
		t.Fatal("L0 should be on modules with a 1-byte budget")
	}
	res := tr.Search(pts[:200])
	for i, r := range res {
		if r.Terminal == nil || !r.Terminal.IsLeaf() {
			t.Fatalf("query %d failed under module-resident L0", i)
		}
	}
	// kNN must stay exact in this mode too.
	qs := randPoints(rng, 10, 3, 1<<20)
	got := tr.KNN(qs, 5)
	for i, q := range qs {
		want := bruteKNN(pts, q, 5)
		for j := range want {
			if got[i][j].Dist != want[j].Dist {
				t.Fatalf("module-resident L0 kNN mismatch q=%d", i)
			}
		}
	}
	// Updates must propagate counters to P replicas (syncs charged).
	before := tr.System().Metrics()
	tr.Insert(randPoints(rng, 3000, 3, 1<<20))
	delta := tr.System().Metrics().Sub(before)
	if delta.BytesToPIM == 0 {
		t.Fatal("module-resident L0 insert moved no bytes")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestInterleavedInsertDelete stresses promotion/demotion and chunk churn
// with alternating growth and shrinkage.
func TestInterleavedInsertDelete(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	tr := New(testConfig(SkewResistant), randPoints(rng, 10000, 3, 1<<18))
	var live []geom.Point
	live = append(live, tr.Points()...)
	for round := 0; round < 8; round++ {
		add := randPoints(rng, 2000, 3, 1<<18)
		tr.Insert(add)
		live = append(live, add...)
		del := append([]geom.Point(nil), live[:1500]...)
		tr.Delete(del)
		live = live[1500:]
		if tr.Size() != len(live) {
			t.Fatalf("round %d: size %d, want %d", round, tr.Size(), len(live))
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if bad := tr.CheckCounterInvariant(); bad != nil {
			t.Fatalf("round %d: Lemma 3.1 violated", round)
		}
	}
	// Final cross-check against a fresh oracle over the surviving set.
	oracle := zdtree.New(zdtree.Config{Dims: 3}, live)
	qs := randPoints(rng, 25, 3, 1<<18)
	got := tr.KNN(qs, 5)
	for i, q := range qs {
		want := oracle.KNN(q, 5, geom.L2)
		for j := range want {
			if got[i][j].Dist != want[j].Dist {
				t.Fatalf("post-churn kNN mismatch q=%d", i)
			}
		}
	}
}

// TestSearchTraceProperties validates the trace contract used by kNN:
// root-first order, nested prefixes, and LowK actually satisfying SC >= k.
func TestSearchTraceProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	pts := randPoints(rng, 20000, 3, 1<<20)
	tr := New(testConfig(SkewResistant), pts)
	keys := make([]uint64, 50)
	qs := randPoints(rng, 50, 3, 1<<20)
	for i := range qs {
		keys[i] = encodeForTest(qs[i])
	}
	res := tr.searchKeys(keys, searchOpts{kTrack: 64, trace: true})
	for i, r := range res {
		if len(r.Trace) == 0 {
			t.Fatalf("query %d has empty trace", i)
		}
		if r.Trace[0] != tr.root {
			t.Fatalf("query %d trace does not start at root", i)
		}
		for j := 1; j < len(r.Trace); j++ {
			if r.Trace[j].PrefixLen <= r.Trace[j-1].PrefixLen && !r.Trace[j-1].IsLeaf() {
				t.Fatalf("query %d trace prefixes not strictly nested at %d", i, j)
			}
		}
		if r.LowK != nil && r.LowK.SC < 64 {
			t.Fatalf("query %d LowK has SC %d < 64", i, r.LowK.SC)
		}
	}
}

func encodeForTest(p geom.Point) uint64 {
	return morton.EncodePoint(p)
}

// TestDeleteMixedBatchWithDivergingPhantom is the regression test for the
// bug FuzzBatchOps found: a delete batch mixing a stored key with a
// phantom key that diverges above the leaf's prefix must still remove the
// stored key (the phantom used to corrupt the sorted bit-partition).
func TestDeleteMixedBatchWithDivergingPhantom(t *testing.T) {
	cfg := testConfig(SkewResistant)
	cfg.Dims = 2
	tr := New(cfg, nil)
	stored := []geom.Point{
		geom.P2(48, 49), geom.P2(48, 49), geom.P2(48, 50), geom.P2(48, 49),
		geom.P2(48, 48), geom.P2(48, 48), geom.P2(48, 48), geom.P2(31, 31),
	}
	tr.Insert(stored)
	tr.Delete([]geom.Point{geom.P2(65, 48), geom.P2(48, 48)})
	if tr.Size() != 7 {
		t.Fatalf("size %d, want 7 (phantom ignored, one real delete)", tr.Size())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSoakChurn is a longer randomized soak: sustained mixed batches with
// continuous invariant checking and periodic oracle cross-checks. Skipped
// under -short.
func TestSoakChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(20260704))
	tr := New(testConfig(SkewResistant), randPoints(rng, 30000, 3, 1<<20))
	live := tr.Points()
	for round := 0; round < 25; round++ {
		switch round % 5 {
		case 0, 1, 2: // grow
			batch := randPoints(rng, 3000, 3, 1<<20)
			tr.Insert(batch)
			live = append(live, batch...)
		case 3: // shrink, mixing phantoms in
			del := append([]geom.Point(nil), live[:2000]...)
			del = append(del, randPoints(rng, 200, 3, 1<<20)...) // mostly absent
			before := tr.Size()
			tr.Delete(del)
			removed := before - tr.Size()
			if removed < 2000 {
				t.Fatalf("round %d: removed only %d", round, removed)
			}
			// Rebuild the oracle view: drop the first 2000 plus any of
			// the random phantoms that happened to exist.
			live = tr.Points()
		case 4: // query heavy
			qs := randPoints(rng, 30, 3, 1<<20)
			got := tr.KNN(qs, 7)
			for i, q := range qs {
				want := bruteKNN(live, q, 7)
				for j := range want {
					if got[i][j].Dist != want[j].Dist {
						t.Fatalf("round %d: kNN mismatch", round)
					}
				}
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if bad := tr.CheckCounterInvariant(); bad != nil {
			t.Fatalf("round %d: Lemma 3.1 violated", round)
		}
		if tr.Size() != len(live) {
			t.Fatalf("round %d: size %d vs oracle %d", round, tr.Size(), len(live))
		}
	}
}
