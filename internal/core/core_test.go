package core

import (
	"math/rand"
	"sort"
	"testing"

	"pimzdtree/internal/costmodel"
	"pimzdtree/internal/geom"
	"pimzdtree/internal/workload"
)

// testMachine returns a small PIM machine for fast tests.
func testMachine(p int) costmodel.Machine {
	m := costmodel.UPMEMServer()
	m.PIMModules = p
	return m
}

func testConfig(tuning Tuning) Config {
	return Config{Dims: 3, Machine: testMachine(64), Tuning: tuning}
}

func randPoints(rng *rand.Rand, n int, dims uint8, limit uint32) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		p := geom.Point{Dims: dims}
		for d := uint8(0); d < dims; d++ {
			p.Coords[d] = rng.Uint32() % limit
		}
		pts[i] = p
	}
	return pts
}

func bruteKNN(pts []geom.Point, q geom.Point, k int) []Neighbor {
	ns := make([]Neighbor, len(pts))
	for i, p := range pts {
		ns[i] = Neighbor{Point: p, Dist: geom.DistL2Sq(p, q)}
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i].Dist < ns[j].Dist })
	if len(ns) > k {
		ns = ns[:k]
	}
	return ns
}

func bruteBoxCount(pts []geom.Point, box geom.Box) int64 {
	var c int64
	for _, p := range pts {
		if box.Contains(p) {
			c++
		}
	}
	return c
}

func TestEmptyTree(t *testing.T) {
	tr := New(testConfig(ThroughputOptimized), nil)
	if tr.Size() != 0 {
		t.Fatal("size")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	res := tr.Search([]geom.Point{geom.P3(1, 2, 3)})
	if res[0].Terminal != nil {
		t.Fatal("search on empty tree")
	}
	if got := tr.KNN([]geom.Point{geom.P3(0, 0, 0)}, 3); got[0] != nil {
		t.Fatal("kNN on empty tree")
	}
}

func TestBuildInvariantsBothTunings(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tuning := range []Tuning{ThroughputOptimized, SkewResistant} {
		for _, n := range []int{1, 17, 1000, 30000} {
			tr := New(testConfig(tuning), randPoints(rng, n, 3, 1<<20))
			if tr.Size() != n {
				t.Fatalf("%v n=%d: size %d", tuning, n, tr.Size())
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("%v n=%d: %v", tuning, n, err)
			}
			if bad := tr.CheckCounterInvariant(); bad != nil {
				t.Fatalf("%v n=%d: counter invariant violated", tuning, n)
			}
		}
	}
}

func TestLayerStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tr := New(testConfig(ThroughputOptimized), randPoints(rng, 50000, 3, 1<<20))
	st := tr.Stats()
	if st.L0Nodes == 0 {
		t.Fatal("no L0 nodes for a 50k tree")
	}
	theta0, theta1, b := tr.Thresholds()
	if theta0 != 50000/64 {
		t.Fatalf("thetaL0 = %d", theta0)
	}
	if theta1 != 1 {
		t.Fatalf("thetaL1 = %d", theta1)
	}
	if b != theta0 {
		t.Fatalf("B = %d", b)
	}
	// Throughput-optimized: no L2 chunks (ThetaL1 = 1 puts everything
	// non-L0 into L1).
	if st.L2Chunks != 0 {
		t.Fatalf("L2 chunks = %d, want 0", st.L2Chunks)
	}
	if st.L1Chunks == 0 {
		t.Fatal("no L1 chunks")
	}
}

func TestSkewResistantLayers(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := New(testConfig(SkewResistant), randPoints(rng, 50000, 3, 1<<20))
	theta0, theta1, b := tr.Thresholds()
	if theta0 != 256 { // 4*P
		t.Fatalf("thetaL0 = %d", theta0)
	}
	if b != 16 {
		t.Fatalf("B = %d", b)
	}
	if theta1 < 2 {
		t.Fatalf("thetaL1 = %d", theta1)
	}
	// With ThetaL1 = ceil(log_16 64) = 2 and 16-point leaves, L2 holds
	// only 1-2 point subtrees, so it is sparse by design; both L1 chunks
	// and a populated L0 must exist.
	st := tr.Stats()
	if st.L1Chunks == 0 || st.L0Nodes == 0 {
		t.Fatalf("missing layers: %+v", st)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCustomTuningProducesL2(t *testing.T) {
	// A ThetaL1 above the leaf capacity forces a real L2 layer, which
	// exercises the per-meta-level L2 push-pull rounds.
	rng := rand.New(rand.NewSource(27))
	cfg := testConfig(Custom)
	cfg.ThetaL0 = 2000
	cfg.ThetaL1 = 64
	cfg.B = 8
	tr := New(cfg, randPoints(rng, 50000, 3, 1<<20))
	st := tr.Stats()
	if st.L2Chunks == 0 {
		t.Fatal("expected L2 chunks with ThetaL1=64")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Search must still route correctly through all three layers.
	pts := tr.Points()
	res := tr.Search(pts[:200])
	for i, r := range res {
		if r.Terminal == nil || !r.Terminal.IsLeaf() {
			t.Fatalf("query %d did not reach a leaf", i)
		}
	}
	m := tr.System().Metrics()
	if m.Rounds == 0 {
		t.Fatal("no rounds recorded")
	}
}

func TestChunkPlacementSpread(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tr := New(testConfig(SkewResistant), randPoints(rng, 50000, 3, 1<<20))
	modules := map[int]int{}
	for _, c := range tr.chunks {
		modules[c.Module]++
	}
	if len(modules) < tr.P()/2 {
		t.Fatalf("chunks landed on only %d of %d modules", len(modules), tr.P())
	}
}

func TestSearchFindsStoredPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := randPoints(rng, 20000, 3, 1<<20)
	for _, tuning := range []Tuning{ThroughputOptimized, SkewResistant} {
		tr := New(testConfig(tuning), pts)
		res := tr.Search(pts[:500])
		for i, r := range res {
			if r.Terminal == nil || !r.Terminal.IsLeaf() {
				t.Fatalf("%v: query %d missing leaf", tuning, i)
			}
			found := false
			for _, p := range r.Terminal.Pts {
				if p.Equal(pts[i]) {
					found = true
				}
			}
			if !found {
				t.Fatalf("%v: point %d not in terminal leaf", tuning, i)
			}
		}
	}
}

func TestContains(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pts := randPoints(rng, 5000, 3, 1<<18)
	tr := New(testConfig(ThroughputOptimized), pts)
	for _, p := range pts[:50] {
		if !tr.Contains(p) {
			t.Fatalf("missing %v", p)
		}
	}
	if tr.Contains(geom.P3(1<<20, 1<<20, 1<<20)) {
		t.Fatal("phantom point")
	}
}

// TestContainsBatchDifferential pins the batch membership convention every
// serving layer shares against the single-query path and a set oracle:
// present, absent and duplicated queries, duplicated stored points, the
// empty batch, and the emptied tree (which must answer without running —
// or charging — a search).
func TestContainsBatchDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	stored := randPoints(rng, 3000, 3, 1<<12)
	stored = append(stored, stored[:40]...) // duplicate stored points
	tr := New(testConfig(ThroughputOptimized), stored)
	oracle := make(map[geom.Point]bool, len(stored))
	for _, p := range stored {
		oracle[p] = true
	}

	batch := append([]geom.Point(nil), stored[:200]...)
	batch = append(batch, randPoints(rng, 200, 3, 1<<12)...) // mostly absent, same region
	batch = append(batch, geom.P3(1<<20, 1<<20, 1<<20))      // absent, far away
	batch = append(batch, batch[:50]...)                     // duplicated queries
	check := func(stage string) {
		t.Helper()
		got := tr.ContainsBatch(batch)
		if len(got) != len(batch) {
			t.Fatalf("%s: %d answers for %d queries", stage, len(got), len(batch))
		}
		for i, p := range batch {
			if got[i] != oracle[p] {
				t.Fatalf("%s: ContainsBatch[%d](%v) = %v, oracle %v", stage, i, p, got[i], oracle[p])
			}
			if one := tr.Contains(p); one != got[i] {
				t.Fatalf("%s: Contains(%v) = %v, ContainsBatch says %v", stage, p, one, got[i])
			}
		}
	}
	check("built")
	if got := tr.ContainsBatch(nil); len(got) != 0 {
		t.Fatalf("empty batch: %d answers", len(got))
	}

	// One stored instance of each duplicate gone: the point is still there.
	tr.Delete(stored[:40])
	check("one duplicate instance deleted")

	tr.Delete(stored[40:])
	if tr.Size() != 0 {
		t.Fatalf("tree not emptied: size %d", tr.Size())
	}
	clear(oracle)
	before := tr.System().Metrics()
	check("emptied")
	if after := tr.System().Metrics(); after != before {
		t.Fatalf("membership on an empty tree charged the model: %+v -> %+v", before, after)
	}
}

func TestInsertMatchesBulkBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := randPoints(rng, 12000, 3, 1<<20)
	for _, tuning := range []Tuning{ThroughputOptimized, SkewResistant} {
		bulk := New(testConfig(tuning), pts)
		inc := New(testConfig(tuning), pts[:2000])
		for lo := 2000; lo < len(pts); lo += 2500 {
			hi := lo + 2500
			if hi > len(pts) {
				hi = len(pts)
			}
			inc.Insert(pts[lo:hi])
			if err := inc.CheckInvariants(); err != nil {
				t.Fatalf("%v after insert [%d:%d): %v", tuning, lo, hi, err)
			}
			if bad := inc.CheckCounterInvariant(); bad != nil {
				t.Fatalf("%v: Lemma 3.1 violated: SC=%d Size=%d", tuning, bad.SC, bad.Size)
			}
		}
		a, b := inc.Points(), bulk.Points()
		if len(a) != len(b) {
			t.Fatalf("%v: %d vs %d points", tuning, len(a), len(b))
		}
		for i := range a {
			if !a[i].Equal(b[i]) {
				t.Fatalf("%v: structure diverged at %d", tuning, i)
			}
		}
	}
}

func TestInsertIntoEmpty(t *testing.T) {
	tr := New(testConfig(ThroughputOptimized), nil)
	tr.Insert([]geom.Point{geom.P3(1, 2, 3), geom.P3(4, 5, 6)})
	if tr.Size() != 2 {
		t.Fatal("insert into empty")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDelete(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pts := randPoints(rng, 8000, 3, 1<<20)
	for _, tuning := range []Tuning{ThroughputOptimized, SkewResistant} {
		tr := New(testConfig(tuning), pts)
		tr.Delete(pts[:4000])
		if tr.Size() != 4000 {
			t.Fatalf("%v: size %d", tuning, tr.Size())
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if bad := tr.CheckCounterInvariant(); bad != nil {
			t.Fatalf("%v: Lemma 3.1 violated after delete", tuning)
		}
		for _, p := range pts[4100:4200] {
			if !tr.Contains(p) {
				t.Fatal("survivor missing")
			}
		}
		tr.Delete(pts[4000:])
		if tr.Size() != 0 {
			t.Fatalf("%v: size after full delete %d", tuning, tr.Size())
		}
	}
}

func TestDeletePhantomIgnored(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts := randPoints(rng, 1000, 3, 1000)
	tr := New(testConfig(ThroughputOptimized), pts)
	tr.Delete([]geom.Point{geom.P3(1<<20, 1<<20, 1<<20)})
	if tr.Size() != 1000 {
		t.Fatal("phantom delete changed size")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestKNNMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	pts := randPoints(rng, 6000, 3, 1<<16)
	for _, tuning := range []Tuning{ThroughputOptimized, SkewResistant} {
		tr := New(testConfig(tuning), pts)
		queries := randPoints(rng, 40, 3, 1<<16)
		for _, k := range []int{1, 5, 17} {
			got := tr.KNN(queries, k)
			for i, q := range queries {
				want := bruteKNN(pts, q, k)
				if len(got[i]) != len(want) {
					t.Fatalf("%v k=%d q=%d: %d results, want %d", tuning, k, i, len(got[i]), len(want))
				}
				for j := range want {
					if got[i][j].Dist != want[j].Dist {
						t.Fatalf("%v k=%d q=%d: dist[%d]=%d want %d", tuning, k, i, j, got[i][j].Dist, want[j].Dist)
					}
				}
			}
		}
	}
}

func TestKNNWithoutAnchor(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pts := randPoints(rng, 4000, 3, 1<<16)
	cfg := testConfig(ThroughputOptimized)
	cfg.DisableL1Anchor = true
	tr := New(cfg, pts)
	queries := randPoints(rng, 25, 3, 1<<16)
	got := tr.KNN(queries, 10)
	for i, q := range queries {
		want := bruteKNN(pts, q, 10)
		for j := range want {
			if got[i][j].Dist != want[j].Dist {
				t.Fatalf("q=%d dist[%d] mismatch", i, j)
			}
		}
	}
}

func TestKNNKLargerThanTree(t *testing.T) {
	pts := []geom.Point{geom.P3(1, 1, 1), geom.P3(5, 5, 5), geom.P3(9, 9, 9)}
	tr := New(testConfig(ThroughputOptimized), pts)
	got := tr.KNN([]geom.Point{geom.P3(0, 0, 0)}, 10)
	if len(got[0]) != 3 {
		t.Fatalf("got %d results, want all 3", len(got[0]))
	}
	for i := 1; i < len(got[0]); i++ {
		if got[0][i].Dist < got[0][i-1].Dist {
			t.Fatal("unsorted results")
		}
	}
}

func TestBoxCountMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	pts := randPoints(rng, 8000, 3, 1<<16)
	for _, tuning := range []Tuning{ThroughputOptimized, SkewResistant} {
		tr := New(testConfig(tuning), pts)
		boxes := make([]geom.Box, 40)
		for i := range boxes {
			lo := geom.P3(rng.Uint32()%(1<<16), rng.Uint32()%(1<<16), rng.Uint32()%(1<<16))
			boxes[i] = geom.NewBox(lo, geom.P3(
				lo.Coords[0]+rng.Uint32()%(1<<14),
				lo.Coords[1]+rng.Uint32()%(1<<14),
				lo.Coords[2]+rng.Uint32()%(1<<14)))
		}
		got := tr.BoxCount(boxes)
		for i, b := range boxes {
			if want := bruteBoxCount(pts, b); got[i] != want {
				t.Fatalf("%v box %d: count %d want %d", tuning, i, got[i], want)
			}
		}
	}
}

func TestBoxFetchMatchesCount(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pts := randPoints(rng, 8000, 3, 1<<16)
	tr := New(testConfig(SkewResistant), pts)
	boxes := make([]geom.Box, 30)
	for i := range boxes {
		lo := geom.P3(rng.Uint32()%(1<<16), rng.Uint32()%(1<<16), rng.Uint32()%(1<<16))
		boxes[i] = geom.NewBox(lo, geom.P3(
			lo.Coords[0]+rng.Uint32()%(1<<14),
			lo.Coords[1]+rng.Uint32()%(1<<14),
			lo.Coords[2]+rng.Uint32()%(1<<14)))
	}
	counts := tr.BoxCount(boxes)
	fetches := tr.BoxFetch(boxes)
	for i := range boxes {
		if int64(len(fetches[i])) != counts[i] {
			t.Fatalf("box %d: fetch %d vs count %d", i, len(fetches[i]), counts[i])
		}
		for _, p := range fetches[i] {
			if !boxes[i].Contains(p) {
				t.Fatal("fetched point outside box")
			}
		}
	}
}

func TestBoxWholeSpace(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	pts := randPoints(rng, 3000, 3, 1<<20)
	tr := New(testConfig(ThroughputOptimized), pts)
	m := uint32(1<<21 - 1)
	all := geom.NewBox(geom.P3(0, 0, 0), geom.P3(m, m, m))
	if got := tr.BoxCount([]geom.Box{all}); got[0] != 3000 {
		t.Fatalf("whole-space count = %d", got[0])
	}
	if got := tr.BoxFetch([]geom.Box{all}); len(got[0]) != 3000 {
		t.Fatalf("whole-space fetch = %d", len(got[0]))
	}
}

func TestMetricsAccumulate(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	pts := randPoints(rng, 20000, 3, 1<<20)
	tr := New(testConfig(ThroughputOptimized), pts)
	tr.System().ResetMetrics()
	queries := randPoints(rng, 2000, 3, 1<<20)
	tr.Search(queries)
	m := tr.System().Metrics()
	if m.Rounds == 0 {
		t.Fatal("search used no rounds")
	}
	if m.ChannelBytes() == 0 {
		t.Fatal("search moved no bytes")
	}
	if m.TotalSeconds() <= 0 {
		t.Fatal("no modeled time")
	}
}

func TestThroughputOptimizedSearchRoundsConstant(t *testing.T) {
	// Table 2: O(1) communication rounds per search batch for the
	// throughput-optimized config (L0 on CPU, one L1 round, no L2).
	rng := rand.New(rand.NewSource(16))
	pts := randPoints(rng, 40000, 3, 1<<20)
	tr := New(testConfig(ThroughputOptimized), pts)
	tr.System().ResetMetrics()
	tr.Search(randPoints(rng, 5000, 3, 1<<20))
	m := tr.System().Metrics()
	if m.Rounds > 3 {
		t.Fatalf("throughput-optimized search took %d rounds, want <= 3", m.Rounds)
	}
}

func TestSearchCommunicationIndependentOfN(t *testing.T) {
	// §7.3 "Sensitivity to Dataset Sizes": per-query communication should
	// not grow with n.
	rng := rand.New(rand.NewSource(17))
	perQuery := func(n int) float64 {
		tr := New(testConfig(ThroughputOptimized), randPoints(rng, n, 3, 1<<20))
		tr.System().ResetMetrics()
		q := randPoints(rng, 2000, 3, 1<<20)
		tr.Search(q)
		return float64(tr.System().Metrics().ChannelBytes()) / float64(len(q))
	}
	small := perQuery(10000)
	large := perQuery(160000)
	if large > small*2 {
		t.Fatalf("per-query traffic grew with n: %f -> %f", small, large)
	}
}

func TestLoadBalanceUnderSkew(t *testing.T) {
	// All queries target one tiny region; the push-pull search must not
	// send them all to one module's queue unboundedly (they get pulled).
	rng := rand.New(rand.NewSource(18))
	pts := randPoints(rng, 30000, 3, 1<<20)
	tr := New(testConfig(SkewResistant), pts)
	tr.System().ResetMetrics()
	hot := pts[42]
	queries := make([]geom.Point, 5000)
	for i := range queries {
		queries[i] = hot
	}
	tr.Search(queries)
	if tr.Stats().Pulls == 0 {
		t.Fatal("skewed batch triggered no pulls")
	}
}

func TestOSMLikeWorkload(t *testing.T) {
	pts := workload.OSMLike(19, 20000, 3)
	for _, tuning := range []Tuning{ThroughputOptimized, SkewResistant} {
		tr := New(testConfig(tuning), pts)
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("%v: %v", tuning, err)
		}
		qs := workload.QueryPoints(20, pts, 50)
		got := tr.KNN(qs, 5)
		for i, q := range qs {
			want := bruteKNN(pts, q, 5)
			for j := range want {
				if got[i][j].Dist != want[j].Dist {
					t.Fatalf("%v q=%d: dist[%d] mismatch: %d vs %d", tuning, i, j, got[i][j].Dist, want[j].Dist)
				}
			}
		}
	}
}

func TestDuplicatePoints(t *testing.T) {
	pts := make([]geom.Point, 150)
	for i := range pts {
		pts[i] = geom.P3(7, 7, 7)
	}
	tr := New(testConfig(ThroughputOptimized), pts)
	if tr.Size() != 150 {
		t.Fatal("duplicates lost")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	got := tr.KNN([]geom.Point{geom.P3(7, 7, 7)}, 3)
	if len(got[0]) == 0 || got[0][0].Dist != 0 {
		t.Fatal("kNN on duplicates")
	}
}

func TestSpaceLinear(t *testing.T) {
	// Theorem 5.1: space O(n + n/ThetaL0 * P + ...); for the two standard
	// configs total modeled bytes should stay within a small multiple of
	// the raw point payload.
	rng := rand.New(rand.NewSource(21))
	pts := randPoints(rng, 50000, 3, 1<<20)
	raw := int64(len(pts)) * pointBytes
	for _, tuning := range []Tuning{ThroughputOptimized, SkewResistant} {
		tr := New(testConfig(tuning), pts)
		st := tr.Stats()
		if st.StoredTotal < raw {
			t.Fatalf("%v: stored %d below raw payload %d", tuning, st.StoredTotal, raw)
		}
		if st.StoredTotal > 8*raw {
			t.Fatalf("%v: stored %d exceeds 8x raw payload %d", tuning, st.StoredTotal, raw)
		}
	}
}

func TestLazyCounterSyncsAreRare(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	pts := randPoints(rng, 40000, 3, 1<<20)
	lazy := New(testConfig(ThroughputOptimized), pts[:30000])
	lazy.Insert(pts[30000:])
	eagerCfg := testConfig(ThroughputOptimized)
	eagerCfg.DisableLazyCounters = true
	eager := New(eagerCfg, pts[:30000])
	eager.Insert(pts[30000:])
	if lazy.Stats().CounterSyncs >= eager.Stats().CounterSyncs {
		t.Fatalf("lazy counters synced %d times vs eager %d",
			lazy.Stats().CounterSyncs, eager.Stats().CounterSyncs)
	}
}

func TestAblationsStillCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	pts := randPoints(rng, 5000, 3, 1<<16)
	queries := randPoints(rng, 20, 3, 1<<16)
	for _, mutate := range []func(*Config){
		func(c *Config) { c.DisableLazyCounters = true },
		func(c *Config) { c.NaiveZOrder = true },
		func(c *Config) { c.DisableL1Anchor = true },
		func(c *Config) { c.DisableDirectAPI = true },
	} {
		cfg := testConfig(ThroughputOptimized)
		mutate(&cfg)
		tr := New(cfg, pts)
		tr.Insert(randPoints(rng, 500, 3, 1<<16))
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		got := tr.KNN(queries, 5)
		all := tr.Points()
		for i, q := range queries {
			want := bruteKNN(all, q, 5)
			for j := range want {
				if got[i][j].Dist != want[j].Dist {
					t.Fatalf("ablated config wrong kNN at q=%d", i)
				}
			}
		}
	}
}

func TestTwoDimensional(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	pts := randPoints(rng, 5000, 2, 1<<15)
	cfg := testConfig(ThroughputOptimized)
	cfg.Dims = 2
	tr := New(cfg, pts)
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	queries := randPoints(rng, 20, 2, 1<<15)
	got := tr.KNN(queries, 5)
	for i, q := range queries {
		want := bruteKNN(pts, q, 5)
		for j := range want {
			if got[i][j].Dist != want[j].Dist {
				t.Fatalf("2D kNN mismatch at q=%d", i)
			}
		}
	}
}

func TestStringers(t *testing.T) {
	if L0.String() != "L0" || L1.String() != "L1" || L2.String() != "L2" {
		t.Fatal("layer names")
	}
	if ThroughputOptimized.String() != "throughput-optimized" {
		t.Fatal("tuning name")
	}
	if SkewResistant.String() != "skew-resistant" || Custom.String() != "custom" {
		t.Fatal("tuning names")
	}
}

func TestCustomTuning(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	cfg := testConfig(Custom)
	cfg.ThetaL0 = 1000
	cfg.ThetaL1 = 10
	cfg.B = 8
	tr := New(cfg, randPoints(rng, 20000, 3, 1<<20))
	theta0, theta1, b := tr.Thresholds()
	if theta0 != 1000 || theta1 != 10 || b != 8 {
		t.Fatalf("custom thresholds not applied: %d %d %d", theta0, theta1, b)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPromotionsOnGrowth(t *testing.T) {
	// Growing the tree ~16x forces subtree sizes across the thresholds:
	// promotions and/or demotions must fire.
	rng := rand.New(rand.NewSource(26))
	cfg := testConfig(SkewResistant)
	tr := New(cfg, randPoints(rng, 4000, 3, 1<<20))
	for i := 0; i < 15; i++ {
		tr.Insert(randPoints(rng, 4000, 3, 1<<20))
	}
	st := tr.Stats()
	if st.Promotions+st.Demotions == 0 {
		t.Fatal("no layer transitions after 16x growth")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if bad := tr.CheckCounterInvariant(); bad != nil {
		t.Fatal("Lemma 3.1 violated after growth")
	}
}

func TestParseTuning(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Tuning
		ok   bool
	}{
		{"throughput", ThroughputOptimized, true},
		{"skew", SkewResistant, true},
		{"skw", 0, false},
		{"", 0, false},
		{"custom", 0, false},
	} {
		got, err := ParseTuning(tc.name)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseTuning(%q) = %v, %v; want %v, ok=%v", tc.name, got, err, tc.want, tc.ok)
		}
	}
}
