package core

import (
	"math/rand"
	"sort"
	"testing"

	"pimzdtree/internal/geom"
)

// Unit tests for the in-place selection kernel against a sort.Sort oracle,
// with heavy distance duplication so the tie-handling contracts are
// exercised: selection by Dist alone must preserve the k-th distance
// value; selection under the total order must yield exactly the sorted
// prefix set.

func randNeighbors(rng *rand.Rand, n int, distRange uint64) []Neighbor {
	ns := make([]Neighbor, n)
	for i := range ns {
		ns[i] = Neighbor{
			Point: geom.P3(rng.Uint32()%64, rng.Uint32()%64, rng.Uint32()%64),
			Dist:  rng.Uint64() % distRange,
		}
	}
	return ns
}

type oracleOrder struct {
	ns   []Neighbor
	less func(a, b Neighbor) bool
}

func (o oracleOrder) Len() int           { return len(o.ns) }
func (o oracleOrder) Swap(i, j int)      { o.ns[i], o.ns[j] = o.ns[j], o.ns[i] }
func (o oracleOrder) Less(i, j int) bool { return o.less(o.ns[i], o.ns[j]) }

func TestSelectSmallestByDistKth(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(200)
		ns := randNeighbors(rng, n, 1+uint64(rng.Intn(2))*30) // many exact ties
		want := append([]Neighbor(nil), ns...)
		sort.Stable(oracleOrder{want, lessByDist})
		k := 1 + rng.Intn(n)
		selectSmallest(ns, k, lessByDist)
		var kth uint64
		for _, nb := range ns[:k] {
			if nb.Dist > kth {
				kth = nb.Dist
			}
		}
		if kth != want[k-1].Dist {
			t.Fatalf("trial %d: k-th dist %d, oracle %d (n=%d k=%d)", trial, kth, want[k-1].Dist, n, k)
		}
	}
}

func TestSelectSmallestTotalOrderPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(200)
		ns := randNeighbors(rng, n, 16) // force ties at every boundary
		want := append([]Neighbor(nil), ns...)
		sort.Sort(oracleOrder{want, lessByDistPoint})
		m := 1 + rng.Intn(n)
		selectSmallest(ns, m, lessByDistPoint)
		sortNeighbors(ns[:m], lessByDistPoint)
		for i := 0; i < m; i++ {
			if ns[i] != want[i] {
				t.Fatalf("trial %d: prefix[%d] = %+v, oracle %+v (n=%d m=%d)", trial, i, ns[i], want[i], n, m)
			}
		}
	}
}

func TestSortNeighborsMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(300)
		ns := randNeighbors(rng, n, 8)
		want := append([]Neighbor(nil), ns...)
		sort.Sort(oracleOrder{want, lessByDistPoint})
		sortNeighbors(ns, lessByDistPoint)
		for i := range ns {
			if ns[i] != want[i] {
				t.Fatalf("trial %d: [%d] = %+v, oracle %+v", trial, i, ns[i], want[i])
			}
		}
	}
}

// TestSelectFinalNeighbors pins the final-filter contract against the old
// sort-everything path: sort the whole arena under the total order, dedupe
// exact duplicates, truncate to k. Arenas are built with many copies of a
// few points so the initial window regularly holds fewer than k distinct
// values and the widening loop must fire.
func TestSelectFinalNeighbors(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(150)
		distinct := 1 + rng.Intn(6) // heavy duplication
		pool := randNeighbors(rng, distinct, 5)
		arena := make([]Neighbor, n)
		for i := range arena {
			arena[i] = pool[rng.Intn(distinct)]
		}
		want := append([]Neighbor(nil), arena...)
		sort.Sort(oracleOrder{want, lessByDistPoint})
		want = dedupeNeighbors(want)
		k := 1 + rng.Intn(8)
		if len(want) > k {
			want = want[:k]
		}
		got := selectFinalNeighbors(arena, k, 1+rng.Intn(2*k))
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d neighbors, want %d (n=%d k=%d)", trial, len(got), len(want), n, k)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: [%d] = %+v, want %+v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestKNNWithDuplicatePoints pins kNN behavior on multi-point data (leaves
// holding hundreds of copies of one point, exceeding LeafCap). A stored
// multi-point is one neighbor: a query at the duplicated point and one near
// it both get the k nearest distinct points, led by the cluster point, in
// sorted order. Stage A must not count the copies as k candidates (that
// would shrink the sphere to radius 0), and the final filter must widen
// past a window full of duplicates.
func TestKNNWithDuplicatePoints(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	pts := make([]geom.Point, 0, 600)
	dup := geom.P3(1<<19, 1<<19, 1<<19)
	for i := 0; i < 300; i++ {
		pts = append(pts, dup)
	}
	for i := 0; i < 300; i++ {
		pts = append(pts, geom.P3(rng.Uint32()%(1<<20), rng.Uint32()%(1<<20), rng.Uint32()%(1<<20)))
	}
	tr := New(testConfig(ThroughputOptimized), pts)
	near := geom.P3(1<<19+3, 1<<19-2, 1<<19+1)
	distinct := pts[299:] // one copy of the cluster point, then the rest
	queries := []geom.Point{dup, near}
	for k := 1; k <= 8; k++ {
		got := tr.KNN(queries, k)
		for qi, ns := range got {
			want := bruteKNN(distinct, queries[qi], k)
			if len(ns) != len(want) {
				t.Fatalf("k=%d query %d: %d neighbors, want %d", k, qi, len(ns), len(want))
			}
			if ns[0].Point != dup {
				t.Fatalf("k=%d query %d: first neighbor %+v, want the cluster point", k, qi, ns[0])
			}
			for i := range ns {
				if ns[i].Dist != want[i].Dist || ns[i].Dist != geom.DistL2Sq(ns[i].Point, queries[qi]) {
					t.Fatalf("k=%d query %d: neighbor %d %+v, want distance %d", k, qi, i, ns[i], want[i].Dist)
				}
				if i > 0 && !lessByDistPoint(ns[i-1], ns[i]) {
					t.Fatalf("k=%d query %d: results not strictly increasing at %d: %+v", k, qi, i, ns)
				}
			}
		}
	}
}

// TestFinalCutMatchesSelectFinalNeighbors compares finalCut, the final
// filter's integer-threshold cut, with selectFinalNeighbors on random
// arenas: distances tie often (a few hundred values) and points repeat (a
// pool smaller than the arena), so the threshold window holds ties past
// m0, duplicate pairs, and — when the pool is tiny — fewer than k distinct
// values, which sends finalCut down its fallback.
func TestFinalCutMatchesSelectFinalNeighbors(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var dists []uint64
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(400)
		pool := randNeighbors(rng, 1+rng.Intn(n), 1+uint64(rng.Intn(300)))
		arena := make([]Neighbor, n)
		for i := range arena {
			arena[i] = pool[rng.Intn(len(pool))]
		}
		k := 1 + rng.Intn(16)
		m0 := k + rng.Intn(k+1)
		ref := append([]Neighbor(nil), arena...)
		want := append([]Neighbor(nil), selectFinalNeighbors(ref, k, m0)...)
		var got []Neighbor
		got, dists = finalCut(arena, k, m0, dists)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d neighbors, want %d (n=%d k=%d m0=%d)", trial, len(got), len(want), n, k, m0)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: [%d] = %+v, want %+v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestNthSmallest checks the integer quickselect against a sort, runs of
// equal values included.
func TestNthSmallest(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 500; trial++ {
		xs := make([]uint64, 1+rng.Intn(300))
		span := 1 + rng.Intn(50)
		for i := range xs {
			xs[i] = uint64(rng.Intn(span))
		}
		sorted := append([]uint64(nil), xs...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		m := rng.Intn(len(xs))
		if got := nthSmallest(xs, m); got != sorted[m] {
			t.Fatalf("trial %d: %d-th smallest of %d = %d, want %d", trial, m, len(xs), got, sorted[m])
		}
	}
}

// TestKNNNearMultiPointFetchesABoundedSphere: a leaf of many copies of one
// point can be a query's stage-A start (it holds >= 2k instances) and yet
// hold fewer than k distinct points. Stage A then reruns from the root,
// so the query's sphere is bounded by k distinct candidates instead of
// covering the whole tree: it moves from the modules what a query among
// distinct points does, plus the copies (each a stored instance in the
// sphere), and nowhere near the tree.
func TestKNNNearMultiPointFetchesABoundedSphere(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	const n, copies, k = 30_000, 400, 10
	pts := randPoints(rng, n, 3, 1<<20)
	dup := geom.P3(1<<19, 1<<19, 1<<19)
	for i := 0; i < copies; i++ {
		pts = append(pts, dup)
	}
	tr := New(testConfig(ThroughputOptimized), pts)
	distinct := pts[:n+1]
	fetched := func(q geom.Point) int64 {
		before := tr.System().Metrics()
		got := tr.KNN([]geom.Point{q}, k)[0]
		want := bruteKNN(distinct, q, k)
		if len(got) != k {
			t.Fatalf("query %v: %d neighbors, want %d", q, len(got), k)
		}
		for i := range got {
			if got[i].Dist != want[i].Dist {
				t.Fatalf("query %v: neighbor %d at %d, want %d", q, i, got[i].Dist, want[i].Dist)
			}
		}
		return tr.System().Metrics().BytesFromPIM - before.BytesFromPIM
	}
	plain := fetched(pts[17])
	for _, q := range []geom.Point{dup, geom.P3(1<<19+3, 1<<19-2, 1<<19+1)} {
		got := fetched(q)
		bound := 8*plain + 4*copies*pointBytes
		t.Logf("query %v: %d bytes from the modules (bound %d)", q, got, bound)
		if got > bound {
			t.Errorf("query %v moved %d bytes from the modules, want <= %d (8x a plain query's %d, and 4x the copies)",
				q, got, bound, plain)
		}
	}
}
