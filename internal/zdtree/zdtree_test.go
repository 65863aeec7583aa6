package zdtree

import (
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"pimzdtree/internal/geom"
	"pimzdtree/internal/memsim"
	"pimzdtree/internal/morton"
)

// randPoints generates n random points with coordinates below limit.
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

// bruteKNN is the oracle for kNN.
func bruteKNN(pts []geom.Point, q geom.Point, k int, m geom.Metric) []Neighbor {
	ns := make([]Neighbor, len(pts))
	for i, p := range pts {
		ns[i] = Neighbor{Point: p, Dist: m.Dist(p, q)}
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i].Dist < ns[j].Dist })
	if len(ns) > k {
		ns = ns[:k]
	}
	return ns
}

// bruteBoxCount is the oracle for BoxCount.
func bruteBoxCount(pts []geom.Point, box geom.Box) int {
	c := 0
	for _, p := range pts {
		if box.Contains(p) {
			c++
		}
	}
	return c
}

func TestEmptyTree(t *testing.T) {
	tr := New(Config{Dims: 3}, nil)
	if tr.Size() != 0 {
		t.Fatal("empty tree size")
	}
	if tr.KNN(geom.P3(1, 2, 3), 5, geom.L2) != nil {
		t.Fatal("kNN on empty tree")
	}
	if tr.BoxCount(geom.NewBox(geom.P3(0, 0, 0), geom.P3(9, 9, 9))) != 0 {
		t.Fatal("BoxCount on empty tree")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 16, 17, 1000, 20000} {
		tr := New(Config{Dims: 3}, randPoints(rng, n, 3, 1<<20))
		if tr.Size() != n {
			t.Fatalf("n=%d: size = %d", n, tr.Size())
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestBuild2DAnd4D(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, dims := range []uint8{2, 4} {
		tr := New(Config{Dims: dims}, randPoints(rng, 5000, dims, 1<<15))
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("dims=%d: %v", dims, err)
		}
	}
}

func TestNodeCountBound(t *testing.T) {
	// Compressed tree: #internal = #leaves - 1, total <= 2n + O(1).
	rng := rand.New(rand.NewSource(3))
	tr := New(Config{Dims: 3}, randPoints(rng, 10000, 3, 1<<20))
	internal, leaves := tr.NodeCount()
	if internal != leaves-1 {
		t.Fatalf("internal=%d leaves=%d", internal, leaves)
	}
	if internal+leaves > 2*10000+1 {
		t.Fatalf("node count %d exceeds 2n", internal+leaves)
	}
}

func TestHistoryIndependence(t *testing.T) {
	// The zd-tree is deterministic: building from a permuted input or
	// via incremental batches yields the same point order and structure
	// statistics.
	rng := rand.New(rand.NewSource(4))
	pts := randPoints(rng, 3000, 3, 1<<20)
	perm := append([]geom.Point(nil), pts...)
	rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })

	t1 := New(Config{Dims: 3}, pts)
	t2 := New(Config{Dims: 3}, perm)
	t3 := New(Config{Dims: 3}, pts[:1000])
	t3.Insert(pts[1000:2000])
	t3.Insert(pts[2000:])

	p1, p2, p3 := t1.Points(), t2.Points(), t3.Points()
	for i := range p1 {
		if !p1[i].Equal(p2[i]) {
			t.Fatalf("permutation changed structure at %d", i)
		}
		if !p1[i].Equal(p3[i]) {
			t.Fatalf("incremental build changed structure at %d", i)
		}
	}
	i1, l1 := t1.NodeCount()
	i3, l3 := t3.NodeCount()
	if i1 != i3 || l1 != l3 {
		t.Fatalf("node counts differ: (%d,%d) vs (%d,%d)", i1, l1, i3, l3)
	}
}

func TestContains(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := randPoints(rng, 2000, 3, 1<<18)
	tr := New(Config{Dims: 3}, pts)
	for _, p := range pts[:200] {
		if !tr.Contains(p) {
			t.Fatalf("missing point %v", p)
		}
	}
	for i := 0; i < 200; i++ {
		q := geom.P3(rng.Uint32()%(1<<18)+1<<19, 0, 0) // outside the coord range used
		if tr.Contains(q) {
			t.Fatalf("phantom point %v", q)
		}
	}
}

func TestInsertMatchesBulkBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pts := randPoints(rng, 8000, 3, 1<<20)
	bulk := New(Config{Dims: 3}, pts)
	inc := New(Config{Dims: 3}, pts[:100])
	for lo := 100; lo < len(pts); lo += 700 {
		hi := lo + 700
		if hi > len(pts) {
			hi = len(pts)
		}
		inc.Insert(pts[lo:hi])
		if err := inc.CheckInvariants(); err != nil {
			t.Fatalf("after insert [%d:%d): %v", lo, hi, err)
		}
	}
	if inc.Size() != bulk.Size() {
		t.Fatalf("sizes differ: %d vs %d", inc.Size(), bulk.Size())
	}
	pi, pb := inc.Points(), bulk.Points()
	for i := range pb {
		if !pi[i].Equal(pb[i]) {
			t.Fatalf("points differ at %d", i)
		}
	}
}

func TestInsertIntoEmpty(t *testing.T) {
	tr := New(Config{Dims: 2}, nil)
	tr.Insert([]geom.Point{geom.P2(1, 2), geom.P2(3, 4)})
	if tr.Size() != 2 {
		t.Fatal("insert into empty failed")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	tr.Insert(nil) // no-op
	if tr.Size() != 2 {
		t.Fatal("empty insert changed size")
	}
}

func TestInsertDuplicateKeys(t *testing.T) {
	// Many copies of the same point must stay in one (over-full) leaf.
	pts := make([]geom.Point, 100)
	for i := range pts {
		pts[i] = geom.P3(5, 5, 5)
	}
	tr := New(Config{Dims: 3}, pts)
	if tr.Size() != 100 {
		t.Fatal("duplicates lost")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	tr.Insert(pts[:10])
	if tr.Size() != 110 {
		t.Fatal("duplicate insert failed")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDelete(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := randPoints(rng, 5000, 3, 1<<20)
	tr := New(Config{Dims: 3}, pts)
	tr.Delete(pts[:2500])
	if tr.Size() != 2500 {
		t.Fatalf("size after delete = %d", tr.Size())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, p := range pts[2600:2700] {
		if !tr.Contains(p) {
			t.Fatal("surviving point missing")
		}
	}
	// Deleting everything empties the tree.
	tr.Delete(pts[2500:])
	if tr.Size() != 0 {
		t.Fatalf("size after full delete = %d", tr.Size())
	}
}

func TestDeleteNonexistentIgnored(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pts := randPoints(rng, 1000, 3, 1<<10)
	tr := New(Config{Dims: 3}, pts)
	tr.Delete([]geom.Point{geom.P3(1<<20, 1<<20, 1<<20)})
	if tr.Size() != 1000 {
		t.Fatal("phantom delete changed size")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteThenInsertRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts := randPoints(rng, 3000, 3, 1<<20)
	tr := New(Config{Dims: 3}, pts)
	tr.Delete(pts[1000:2000])
	tr.Insert(pts[1000:2000])
	// History independence: same structure as the bulk build.
	ref := New(Config{Dims: 3}, pts)
	a, b := tr.Points(), ref.Points()
	if len(a) != len(b) {
		t.Fatalf("sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("points differ at %d", i)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestKNNMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	pts := randPoints(rng, 4000, 3, 1<<16)
	tr := New(Config{Dims: 3}, pts)
	for _, metric := range []geom.Metric{geom.L1, geom.L2, geom.LInf} {
		for i := 0; i < 30; i++ {
			q := geom.P3(rng.Uint32()%(1<<16), rng.Uint32()%(1<<16), rng.Uint32()%(1<<16))
			k := 1 + rng.Intn(20)
			got := tr.KNN(q, k, metric)
			want := bruteKNN(pts, q, k, metric)
			if len(got) != len(want) {
				t.Fatalf("metric %v: got %d results, want %d", metric, len(got), len(want))
			}
			for j := range got {
				if got[j].Dist != want[j].Dist {
					t.Fatalf("metric %v k=%d: dist[%d] = %d, want %d", metric, k, j, got[j].Dist, want[j].Dist)
				}
			}
		}
	}
}

func TestKNNKLargerThanTree(t *testing.T) {
	pts := []geom.Point{geom.P2(1, 1), geom.P2(2, 2), geom.P2(3, 3)}
	tr := New(Config{Dims: 2}, pts)
	got := tr.KNN(geom.P2(0, 0), 10, geom.L2)
	if len(got) != 3 {
		t.Fatalf("got %d results", len(got))
	}
	// Sorted by increasing distance.
	for i := 1; i < len(got); i++ {
		if got[i].Dist < got[i-1].Dist {
			t.Fatal("results not sorted")
		}
	}
}

func TestKNNBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pts := randPoints(rng, 2000, 2, 1<<15)
	tr := New(Config{Dims: 2}, pts)
	qs := randPoints(rng, 50, 2, 1<<15)
	res := tr.KNNBatch(qs, 3, geom.L2)
	for i, q := range qs {
		want := bruteKNN(pts, q, 3, geom.L2)
		for j := range want {
			if res[i][j].Dist != want[j].Dist {
				t.Fatalf("query %d result %d mismatch", i, j)
			}
		}
	}
}

func TestBoxCountMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	pts := randPoints(rng, 5000, 3, 1<<16)
	tr := New(Config{Dims: 3}, pts)
	for i := 0; i < 50; i++ {
		lo := geom.P3(rng.Uint32()%(1<<16), rng.Uint32()%(1<<16), rng.Uint32()%(1<<16))
		hi := geom.P3(lo.Coords[0]+rng.Uint32()%(1<<14), lo.Coords[1]+rng.Uint32()%(1<<14), lo.Coords[2]+rng.Uint32()%(1<<14))
		box := geom.NewBox(lo, hi)
		if got, want := tr.BoxCount(box), bruteBoxCount(pts, box); got != want {
			t.Fatalf("BoxCount = %d, want %d", got, want)
		}
	}
}

func TestBoxFetchMatchesCount(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pts := randPoints(rng, 5000, 2, 1<<15)
	tr := New(Config{Dims: 2}, pts)
	for i := 0; i < 50; i++ {
		lo := geom.P2(rng.Uint32()%(1<<15), rng.Uint32()%(1<<15))
		hi := geom.P2(lo.Coords[0]+rng.Uint32()%(1<<13), lo.Coords[1]+rng.Uint32()%(1<<13))
		box := geom.NewBox(lo, hi)
		fetched := tr.BoxFetch(box)
		if len(fetched) != tr.BoxCount(box) {
			t.Fatalf("fetch %d != count %d", len(fetched), tr.BoxCount(box))
		}
		for _, p := range fetched {
			if !box.Contains(p) {
				t.Fatalf("fetched point %v outside box %v", p, box)
			}
		}
	}
}

func TestBoxWholeSpace(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	pts := randPoints(rng, 1000, 3, 1<<20)
	tr := New(Config{Dims: 3}, pts)
	m := morton.MaxCoord(3)
	all := geom.NewBox(geom.P3(0, 0, 0), geom.P3(m, m, m))
	if got := tr.BoxCount(all); got != 1000 {
		t.Fatalf("whole-space count = %d", got)
	}
	if got := len(tr.BoxFetch(all)); got != 1000 {
		t.Fatalf("whole-space fetch = %d", got)
	}
}

func TestBatchQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	pts := randPoints(rng, 1000, 2, 1<<12)
	tr := New(Config{Dims: 2}, pts)
	boxes := make([]geom.Box, 20)
	for i := range boxes {
		lo := geom.P2(rng.Uint32()%(1<<12), rng.Uint32()%(1<<12))
		boxes[i] = geom.NewBox(lo, geom.P2(lo.Coords[0]+100, lo.Coords[1]+100))
	}
	counts := tr.BoxCountBatch(boxes)
	fetches := tr.BoxFetchBatch(boxes)
	for i := range boxes {
		if counts[i] != len(fetches[i]) {
			t.Fatalf("batch %d: count %d != fetch %d", i, counts[i], len(fetches[i]))
		}
	}
}

func TestHeightLogarithmic(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	tr := New(Config{Dims: 3}, randPoints(rng, 50000, 3, 1<<21))
	// Bounded-ratio uniform data: height O(log n); the key length bounds
	// it at 63, but uniform data should be far lower.
	if h := tr.Height(); h > 30 {
		t.Fatalf("height %d too large for uniform data", h)
	}
}

func TestWorkCounterAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	cfg := Config{Dims: 3}
	tr := New(cfg, randPoints(rng, 1000, 3, 1<<20))
	before := tr.cfg.Work.Load()
	if before <= 0 {
		t.Fatal("build recorded no work")
	}
	tr.KNN(geom.P3(1, 2, 3), 5, geom.L2)
	if tr.cfg.Work.Load() <= before {
		t.Fatal("query recorded no work")
	}
}

func TestTrafficInstrumentation(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	pts := randPoints(rng, 50000, 3, 1<<21)
	cache := memsimCache()
	cfg := Config{Dims: 3, Cache: cache}
	tr := New(cfg, pts)
	cache.Flush() // cold-start the query phase
	for i := 0; i < 100; i++ {
		q := geom.P3(rng.Uint32()%(1<<21), rng.Uint32()%(1<<21), rng.Uint32()%(1<<21))
		tr.KNN(q, 10, geom.L2)
	}
	if cache.Stats().DRAMBytes() == 0 {
		t.Fatal("queries produced no DRAM traffic on a cold cache")
	}
	if tr.cfg.Chase.Load() == 0 {
		t.Fatal("dependent misses not counted")
	}
}

func TestUnsupportedDimsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{Dims: 7}, nil)
}

func TestMismatchedPointDimsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{Dims: 3}, []geom.Point{geom.P2(1, 2)})
}

// TestDeleteMixedBatchWithDivergingPhantom mirrors the core regression:
// phantom keys diverging above a node's prefix must not misroute the
// batch's real deletions.
func TestDeleteMixedBatchWithDivergingPhantom(t *testing.T) {
	tr := New(Config{Dims: 2}, []geom.Point{
		geom.P2(48, 49), geom.P2(48, 49), geom.P2(48, 50), geom.P2(48, 49),
		geom.P2(48, 48), geom.P2(48, 48), geom.P2(48, 48), geom.P2(31, 31),
	})
	tr.Delete([]geom.Point{geom.P2(65, 48), geom.P2(48, 48)})
	if tr.Size() != 7 {
		t.Fatalf("size %d, want 7", tr.Size())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDeleteManyPhantomsAmongReal stresses the narrow-to-prefix fix with
// interleaved present/absent keys across the key space.
func TestDeleteManyPhantomsAmongReal(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	stored := randPoints(rng, 2000, 3, 1<<12) // clustered low corner
	tr := New(Config{Dims: 3}, stored)
	batch := make([]geom.Point, 0, 600)
	for i := 0; i < 300; i++ {
		batch = append(batch, stored[i])
		batch = append(batch, geom.P3(
			1<<12+rng.Uint32()%(1<<20), rng.Uint32()%(1<<20), rng.Uint32()%(1<<20)))
	}
	tr.Delete(batch)
	if tr.Size() != 1700 {
		t.Fatalf("size %d, want 1700", tr.Size())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, p := range stored[:300] {
		if tr.Contains(p) {
			t.Fatalf("deleted point %v still present", p)
		}
	}
	for _, p := range stored[300:320] {
		if !tr.Contains(p) {
			t.Fatalf("surviving point %v missing", p)
		}
	}
}

func BenchmarkBuild100k(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := randPoints(rng, 100_000, 3, 1<<20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		New(Config{Dims: 3}, pts)
	}
}

func BenchmarkKNN10(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	tr := New(Config{Dims: 3}, randPoints(rng, 100_000, 3, 1<<20))
	qs := randPoints(rng, 1000, 3, 1<<20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.KNNBatch(qs, 10, geom.L2)
	}
}

func BenchmarkInsert10k(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	tr := New(Config{Dims: 3}, randPoints(rng, 100_000, 3, 1<<20))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Insert(randPoints(rng, 10_000, 3, 1<<20))
	}
}

func BenchmarkBoxCount(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	tr := New(Config{Dims: 3}, randPoints(rng, 100_000, 3, 1<<20))
	boxes := make([]geom.Box, 1000)
	for i := range boxes {
		lo := geom.P3(rng.Uint32()%(1<<20), rng.Uint32()%(1<<20), rng.Uint32()%(1<<20))
		boxes[i] = geom.NewBox(lo, geom.P3(lo.Coords[0]+1<<14, lo.Coords[1]+1<<14, lo.Coords[2]+1<<14))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.BoxCountBatch(boxes)
	}
}

// TestInstrumentedTrafficDeterministic: every batch operation runs
// serially, so the LLC simulator sees one access order and the counters
// the cost model reads do not depend on GOMAXPROCS. The batches are large
// and the cache is small enough to evict throughout.
func TestInstrumentedTrafficDeterministic(t *testing.T) {
	type counters struct {
		cache       memsim.Stats
		work, chase int64
	}
	run := func(procs int) counters {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		rng := rand.New(rand.NewSource(5))
		cache := memsim.NewCache(1<<16, 16)
		tr := New(Config{Dims: 3, Cache: cache}, randPoints(rng, 20000, 3, 1<<20))
		ins := randPoints(rng, 6000, 3, 1<<20)
		tr.Insert(ins)
		tr.Delete(ins[:5000])
		qs := randPoints(rng, 3000, 3, 1<<20)
		tr.KNNBatch(qs, 4, geom.L2)
		boxes := make([]geom.Box, len(qs))
		for i, q := range qs {
			hi := q
			for d := range hi.Coords[:hi.Dims] {
				hi.Coords[d] += 1 << 16
			}
			boxes[i] = geom.NewBox(q, hi)
		}
		tr.BoxCountBatch(boxes)
		tr.BoxFetchBatch(boxes)
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return counters{cache.Stats(), tr.cfg.Work.Load(), tr.cfg.Chase.Load()}
	}
	serial := run(1)
	if serial.cache.WBBytes == 0 || serial.chase == 0 {
		t.Fatalf("workload too small to evict or chase: %+v", serial)
	}
	for i := 0; i < 3; i++ {
		if got := run(4); got != serial {
			t.Fatalf("GOMAXPROCS=4 run %d: %+v, want the GOMAXPROCS=1 counters %+v", i, got, serial)
		}
	}
}
