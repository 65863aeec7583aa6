package pkdtree

import (
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"pimzdtree/internal/geom"
	"pimzdtree/internal/memsim"
)

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
		t.Fatal("size")
	}
	if tr.KNN(geom.P3(0, 0, 0), 3, geom.L2) != nil {
		t.Fatal("kNN")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 17, 1000, 30000} {
		pts := randPoints(rng, n, 3, 1<<20)
		tr := New(Config{Dims: 3}, append([]geom.Point(nil), pts...))
		if tr.Size() != n {
			t.Fatalf("n=%d size=%d", n, tr.Size())
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestObjectMedianBalance(t *testing.T) {
	// Object-median splits keep the tree near log2(n/leafcap) height even
	// on skewed data — the defining property vs spatial-median trees.
	rng := rand.New(rand.NewSource(2))
	pts := make([]geom.Point, 32768)
	for i := range pts {
		// Exponentially clustered coordinates.
		x := uint32(1) << uint(rng.Intn(20))
		pts[i] = geom.P2(x+rng.Uint32()%64, rng.Uint32()%64)
	}
	tr := New(Config{Dims: 2}, pts)
	if h := tr.Height(); h > 18 {
		t.Fatalf("height %d too large for object-median tree (n=32768)", h)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicatePoints(t *testing.T) {
	pts := make([]geom.Point, 200)
	for i := range pts {
		pts[i] = geom.P2(7, 7)
	}
	tr := New(Config{Dims: 2}, pts)
	if tr.Size() != 200 {
		t.Fatal("duplicates lost")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestManyDuplicateCoordinatesOneDim(t *testing.T) {
	// Half the points share x=5; the median lands inside the run.
	rng := rand.New(rand.NewSource(3))
	pts := make([]geom.Point, 2000)
	for i := range pts {
		if i%2 == 0 {
			pts[i] = geom.P2(5, rng.Uint32()%1000)
		} else {
			pts[i] = geom.P2(rng.Uint32()%10, rng.Uint32()%1000)
		}
	}
	tr := New(Config{Dims: 2}, pts)
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Size() != 2000 {
		t.Fatal("points lost")
	}
}

func TestInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts := randPoints(rng, 6000, 3, 1<<20)
	tr := New(Config{Dims: 3}, append([]geom.Point(nil), pts[:1000]...))
	for lo := 1000; lo < len(pts); lo += 500 {
		tr.Insert(pts[lo : lo+500])
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("after insert at %d: %v", lo, err)
		}
	}
	if tr.Size() != 6000 {
		t.Fatalf("size = %d", tr.Size())
	}
	for _, p := range pts[:100] {
		if !contains(tr, p) {
			t.Fatalf("missing %v", p)
		}
	}
}

func TestInsertIntoEmpty(t *testing.T) {
	tr := New(Config{Dims: 2}, nil)
	tr.Insert([]geom.Point{geom.P2(1, 1)})
	if tr.Size() != 1 {
		t.Fatal("insert into empty")
	}
	tr.Insert(nil)
	if tr.Size() != 1 {
		t.Fatal("nil insert")
	}
}

func TestInsertTriggersRebalance(t *testing.T) {
	// Insert a heavily one-sided batch; weight balance must be restored
	// by partial rebuilds (height stays logarithmic).
	rng := rand.New(rand.NewSource(5))
	left := make([]geom.Point, 4096)
	for i := range left {
		left[i] = geom.P2(rng.Uint32()%100, rng.Uint32()%(1<<20))
	}
	tr := New(Config{Dims: 2}, left)
	right := make([]geom.Point, 16384)
	for i := range right {
		right[i] = geom.P2(1<<20+rng.Uint32()%100, rng.Uint32()%(1<<20))
	}
	for lo := 0; lo < len(right); lo += 1024 {
		tr.Insert(right[lo : lo+1024])
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if h := tr.Height(); h > 22 {
		t.Fatalf("height %d after skewed inserts (n=%d)", h, tr.Size())
	}
}

func TestDelete(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pts := randPoints(rng, 4000, 3, 1<<18)
	tr := New(Config{Dims: 3}, append([]geom.Point(nil), pts...))
	tr.Delete(pts[:2000])
	if tr.Size() != 2000 {
		t.Fatalf("size = %d", tr.Size())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	tr.Delete(pts[2000:])
	if tr.Size() != 0 {
		t.Fatalf("size after full delete = %d", tr.Size())
	}
}

func TestDeletePhantomIgnored(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := randPoints(rng, 500, 2, 1000)
	tr := New(Config{Dims: 2}, append([]geom.Point(nil), pts...))
	tr.Delete([]geom.Point{geom.P2(5000, 5000)})
	if tr.Size() != 500 {
		t.Fatal("phantom delete changed size")
	}
}

func TestKNNMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pts := randPoints(rng, 4000, 3, 1<<16)
	tr := New(Config{Dims: 3}, append([]geom.Point(nil), pts...))
	for _, metric := range []geom.Metric{geom.L1, geom.L2, geom.LInf} {
		for i := 0; i < 30; i++ {
			q := geom.P3(rng.Uint32()%(1<<16), rng.Uint32()%(1<<16), rng.Uint32()%(1<<16))
			k := 1 + rng.Intn(20)
			got := tr.KNN(q, k, metric)
			want := bruteKNN(pts, q, k, metric)
			if len(got) != len(want) {
				t.Fatalf("got %d, want %d", len(got), len(want))
			}
			for j := range got {
				if got[j].Dist != want[j].Dist {
					t.Fatalf("metric %v: dist[%d] = %d, want %d", metric, j, got[j].Dist, want[j].Dist)
				}
			}
		}
	}
}

func TestKNNAfterUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts := randPoints(rng, 3000, 2, 1<<15)
	tr := New(Config{Dims: 2}, append([]geom.Point(nil), pts[:2000]...))
	tr.Insert(pts[2000:])
	tr.Delete(pts[:500])
	remaining := pts[500:]
	for i := 0; i < 20; i++ {
		q := geom.P2(rng.Uint32()%(1<<15), rng.Uint32()%(1<<15))
		got := tr.KNN(q, 5, geom.L2)
		want := bruteKNN(remaining, q, 5, geom.L2)
		for j := range want {
			if got[j].Dist != want[j].Dist {
				t.Fatalf("query %d: dist[%d] mismatch", i, j)
			}
		}
	}
}

func TestBoxQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	pts := randPoints(rng, 5000, 3, 1<<16)
	tr := New(Config{Dims: 3}, append([]geom.Point(nil), pts...))
	for i := 0; i < 50; i++ {
		lo := geom.P3(rng.Uint32()%(1<<16), rng.Uint32()%(1<<16), rng.Uint32()%(1<<16))
		hi := geom.P3(lo.Coords[0]+rng.Uint32()%(1<<14), lo.Coords[1]+rng.Uint32()%(1<<14), lo.Coords[2]+rng.Uint32()%(1<<14))
		box := geom.NewBox(lo, hi)
		want := bruteBoxCount(pts, box)
		if got := tr.BoxCount(box); got != want {
			t.Fatalf("BoxCount = %d, want %d", got, want)
		}
		fetched := tr.BoxFetch(box)
		if len(fetched) != want {
			t.Fatalf("BoxFetch = %d, want %d", len(fetched), want)
		}
		for _, p := range fetched {
			if !box.Contains(p) {
				t.Fatal("fetched point outside box")
			}
		}
	}
}

func TestBatchAPIs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pts := randPoints(rng, 1000, 2, 1<<12)
	tr := New(Config{Dims: 2}, append([]geom.Point(nil), pts...))
	qs := randPoints(rng, 30, 2, 1<<12)
	knn := tr.KNNBatch(qs, 4, geom.L2)
	if len(knn) != 30 {
		t.Fatal("batch size")
	}
	boxes := make([]geom.Box, 10)
	for i := range boxes {
		lo := geom.P2(rng.Uint32()%(1<<12), rng.Uint32()%(1<<12))
		boxes[i] = geom.NewBox(lo, geom.P2(lo.Coords[0]+200, lo.Coords[1]+200))
	}
	counts := tr.BoxCountBatch(boxes)
	fetches := tr.BoxFetchBatch(boxes)
	for i := range boxes {
		if counts[i] != len(fetches[i]) {
			t.Fatalf("batch %d mismatch", i)
		}
	}
}

func TestInstrumentation(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	cache := memsim.NewCache(1<<21, 16)
	cfg := Config{Dims: 3, Cache: cache}
	pts := randPoints(rng, 60000, 3, 1<<20)
	tr := New(cfg, pts)
	if tr.cfg.Work.Load() == 0 {
		t.Fatal("no work counted")
	}
	cache = memsim.NewCache(1<<21, 16) // cold-start the query phase
	tr.cfg.Cache = cache
	for i := 0; i < 100; i++ {
		tr.KNN(geom.P3(rng.Uint32()%(1<<20), rng.Uint32()%(1<<20), rng.Uint32()%(1<<20)), 10, geom.L2)
	}
	if cache.Stats().DRAMBytes() == 0 {
		t.Fatal("no traffic")
	}
	if tr.cfg.Chase.Load() == 0 {
		t.Fatal("no chase misses")
	}
}

func TestPointsAccessor(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pts := randPoints(rng, 100, 2, 1000)
	tr := New(Config{Dims: 2}, append([]geom.Point(nil), pts...))
	all := geom.NewBox(geom.P2(0, 0), geom.P2(^uint32(0), ^uint32(0)))
	if got := tr.BoxFetch(all); len(got) != 100 {
		t.Fatalf("BoxFetch over the whole space returned %d points", len(got))
	}
}

func TestUnsupportedDimsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{Dims: 1}, nil)
}

func TestMismatchedInsertPanics(t *testing.T) {
	tr := New(Config{Dims: 3}, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tr.Insert([]geom.Point{geom.P2(1, 2)})
}

func TestQuickselect(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(500)
		pts := randPoints(rng, n, 2, 100)
		k := rng.Intn(n)
		quickselect(pts, k, 0)
		// All of pts[:k] <= all of pts[k:].
		var maxLeft uint32
		for _, p := range pts[:k] {
			if p.Coords[0] > maxLeft {
				maxLeft = p.Coords[0]
			}
		}
		for _, p := range pts[k:] {
			if k > 0 && p.Coords[0] < maxLeft {
				t.Fatalf("quickselect violated at trial %d", trial)
			}
		}
	}
}

func TestWidestDim(t *testing.T) {
	b := geom.NewBox(geom.P3(0, 0, 0), geom.P3(10, 100, 50))
	if widestDim(b) != 1 {
		t.Fatal("widestDim wrong")
	}
}

func TestMedianOfThree(t *testing.T) {
	cases := [][4]uint32{
		{1, 2, 3, 2}, {3, 2, 1, 2}, {2, 1, 3, 2}, {5, 5, 5, 5}, {1, 3, 2, 2},
	}
	for _, c := range cases {
		if got := medianOfThree(c[0], c[1], c[2]); got != c[3] {
			t.Fatalf("medianOfThree(%d,%d,%d) = %d, want %d", c[0], c[1], c[2], got, c[3])
		}
	}
}

func BenchmarkBuild100k(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := randPoints(rng, 100_000, 3, 1<<20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cp := append([]geom.Point(nil), pts...)
		b.StartTimer()
		New(Config{Dims: 3}, cp)
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
