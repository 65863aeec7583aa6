package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"pimzdtree/internal/geom"
	"pimzdtree/internal/morton"
)

// Leaf payload maintenance. A leaf stores each point once, its coordinates
// in the dim-major lanes (its keys are derived from them), and every update
// rewrites them: deletes compact the lanes in place, merges that fit
// refresh the leaf in place, merges that overflow split it. Every case runs at each supported
// dimensionality, with the leaf alone in the tree and under a background of
// far-away points, and checks the tree against a brute-force multiset after
// every batch.

// leafOp is one update batch of a case.
type leafOp struct {
	insert bool
	pts    []geom.Point
}

func TestLeafPayloadMaintenance(t *testing.T) {
	cases := []struct {
		name  string
		size  int                                 // distinct points in the starting leaf
		start func(c []geom.Point) []geom.Point   // the starting leaf's contents
		ops   func(c, more []geom.Point) []leafOp // more: fresh points of the same region
	}{
		{"delete-first", 9, nil, func(c, _ []geom.Point) []leafOp {
			return []leafOp{{pts: c[:1]}}
		}},
		{"delete-middle", 9, nil, func(c, _ []geom.Point) []leafOp {
			return []leafOp{{pts: c[4:5]}}
		}},
		{"delete-last", 9, nil, func(c, _ []geom.Point) []leafOp {
			return []leafOp{{pts: c[8:]}}
		}},
		{"delete-to-one", 9, nil, func(c, _ []geom.Point) []leafOp {
			return []leafOp{{pts: c[1:]}}
		}},
		{"delete-one-by-one", 9, nil, func(c, _ []geom.Point) []leafOp {
			var ops []leafOp
			for _, i := range []int{4, 0, 7, 8, 2, 1, 6, 5} {
				ops = append(ops, leafOp{pts: c[i : i+1]})
			}
			return ops
		}},
		{"duplicates", 6, func(c []geom.Point) []geom.Point {
			return append(slices.Clone(c), c[2], c[2], c[5])
		}, func(c, _ []geom.Point) []leafOp {
			return []leafOp{
				{pts: c[2:3]},                           // one of three copies
				{insert: true, pts: []geom.Point{c[0]}}, // a copy of a stored point
				{pts: []geom.Point{c[2], c[2], c[5]}},   // the last copies of two points
				{pts: []geom.Point{c[0], c[0]}},
			}
		}},
		{"all-duplicates-over-cap", 1, func(c []geom.Point) []geom.Point {
			dup := make([]geom.Point, 20) // above LeafCap: equal keys never split
			for i := range dup {
				dup[i] = c[0]
			}
			return dup
		}, func(c, more []geom.Point) []leafOp {
			return []leafOp{
				{pts: []geom.Point{c[0], c[0], c[0], c[0], c[0]}},
				{insert: true, pts: []geom.Point{c[0], c[0]}},
				{insert: true, pts: more[:1]}, // a second key splits the leaf
			}
		}},
		{"merge-splits-leaf", 12, nil, func(_, more []geom.Point) []leafOp {
			return []leafOp{{insert: true, pts: more[:8]}}
		}},
		{"refresh-in-place", 8, nil, func(c, more []geom.Point) []leafOp {
			return []leafOp{
				{insert: true, pts: more[:4]},
				{insert: true, pts: []geom.Point{more[4], c[3]}},
				{pts: append(slices.Clone(more[:2]), c[7])},
			}
		}},
	}
	for _, dims := range []uint8{2, 3, 4} {
		for _, background := range []int{0, 3000} {
			for _, tc := range cases {
				name := fmt.Sprintf("dims=%d/background=%d/%s", dims, background, tc.name)
				t.Run(name, func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(dims)*1000 + int64(background)))
					cluster := clusterPoints(rng, dims, tc.size+8)
					c, more := cluster[:tc.size], cluster[tc.size:]
					leaf := c
					if tc.start != nil {
						leaf = tc.start(c)
					}
					want := append(slices.Clone(leaf), farPoints(rng, dims, background)...)
					cfg := testConfig(ThroughputOptimized)
					cfg.Dims = dims
					tr := New(cfg, want)
					home := terminalOf(tr, c[0])
					if !home.IsLeaf() || int(home.Size) != len(leaf) {
						t.Fatalf("starting leaf holds %d points, want %d", home.Size, len(leaf))
					}
					checkLeafState(t, tr, want, c)
					for step, op := range tc.ops(c, more) {
						if op.insert {
							tr.Insert(op.pts)
							want = append(want, op.pts...)
						} else {
							tr.Delete(op.pts)
							want = removeEach(want, op.pts)
						}
						if t.Failed() {
							return
						}
						t.Logf("step %d: %d points", step, len(want))
						checkLeafState(t, tr, want, cluster)
					}
					if tc.name == "refresh-in-place" {
						if terminalOf(tr, c[0]) != home {
							t.Errorf("a merge that fits the leaf replaced it instead of refreshing it in place")
						}
					}
					if tc.name == "merge-splits-leaf" {
						if n := terminalOf(tr, c[0]); int(n.Size) > tr.cfg.LeafCap {
							t.Errorf("merged leaf holds %d points, over the cap of %d", n.Size, tr.cfg.LeafCap)
						}
					}
				})
			}
		}
	}
}

// clusterPoints returns n distinct points in a 64-wide cube at the origin,
// in key order — the order a leaf stores them.
func clusterPoints(rng *rand.Rand, dims uint8, n int) []geom.Point {
	seen := map[geom.Point]bool{}
	var out []geom.Point
	for len(out) < n {
		p := randPoints(rng, 1, dims, 64)[0]
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return morton.EncodePoint(out[i]) < morton.EncodePoint(out[j]) })
	return out
}

// farPoints returns n points in the upper half of every encodable axis,
// away from the cluster's leaf.
func farPoints(rng *rand.Rand, dims uint8, n int) []geom.Point {
	half := morton.MaxCoord(int(dims))/2 + 1
	pts := randPoints(rng, n, dims, half)
	for i := range pts {
		for d := range int(dims) {
			pts[i].Coords[d] += half
		}
	}
	return pts
}

// removeEach removes one instance of every point of del that pts holds.
func removeEach(pts, del []geom.Point) []geom.Point {
	out := slices.Clone(pts)
	for _, p := range del {
		if i := slices.Index(out, p); i >= 0 {
			out = slices.Delete(out, i, i+1)
		}
	}
	return out
}

func terminalOf(tr *Tree, p geom.Point) *Node {
	return tr.Search([]geom.Point{p})[0].Terminal
}

func sortedPoints(pts []geom.Point) []geom.Point {
	out := slices.Clone(pts)
	sort.Slice(out, func(i, j int) bool { return lessPoint(out[i], out[j]) })
	return out
}

// checkLeafState compares the tree with the brute-force multiset want:
// structure, stored points, membership of every probe, a whole-space and a
// cluster box fetch, a cluster box count and a kNN query from the cluster.
func checkLeafState(t *testing.T, tr *Tree, want, probes []geom.Point) {
	t.Helper()
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	if tr.Size() != len(want) {
		t.Fatalf("tree holds %d points, want %d", tr.Size(), len(want))
	}
	sorted := sortedPoints(want)
	if got := sortedPoints(tr.Points()); !slices.Equal(got, sorted) {
		t.Fatalf("stored points differ from the brute-force set")
	}
	for i, ok := range tr.ContainsBatch(probes) {
		if ok != slices.Contains(want, probes[i]) {
			t.Fatalf("Contains(%v) = %v", probes[i], ok)
		}
	}
	dims := probes[0].Dims
	var top geom.Point
	top.Dims = dims
	for d := range int(dims) {
		top.Coords[d] = ^uint32(0)
	}
	whole := geom.NewBox(geom.Point{Dims: dims}, top)
	corner := top
	for d := range int(dims) {
		corner.Coords[d] = 31
	}
	part := geom.NewBox(geom.Point{Dims: dims}, corner)
	fetched := tr.BoxFetch([]geom.Box{whole, part})
	if got := sortedPoints(fetched[0]); !slices.Equal(got, sorted) {
		t.Fatalf("whole-space box fetch differs from the brute-force set")
	}
	var inPart []geom.Point
	for _, p := range want {
		if part.Contains(p) {
			inPart = append(inPart, p)
		}
	}
	if got := sortedPoints(fetched[1]); !slices.Equal(got, sortedPoints(inPart)) {
		t.Fatalf("cluster box fetch returns %d points, want %d", len(got), len(inPart))
	}
	if got := tr.BoxCount([]geom.Box{part})[0]; got != int64(len(inPart)) {
		t.Fatalf("cluster box count %d, want %d", got, len(inPart))
	}
	// kNN: every neighbor is a stored point at its true distance, and the
	// list is the brute-force one over the distinct stored points — a
	// stored multi-point is one neighbor, however many instances it has.
	k := min(5, len(want))
	got := tr.KNN(probes[:1], k)[0]
	for i, nb := range got {
		if nb.Dist != geom.DistL2Sq(nb.Point, probes[0]) || !slices.Contains(want, nb.Point) {
			t.Fatalf("kNN neighbor %d: %v at %d is not a stored point at its distance", i, nb.Point, nb.Dist)
		}
		if i > 0 && slices.ContainsFunc(got[:i], func(o Neighbor) bool { return o.Point.Equal(nb.Point) }) {
			t.Fatalf("kNN neighbor %d: %v is listed twice", i, nb.Point)
		}
	}
	ref := bruteKNN(slices.Compact(sorted), probes[0], k)
	if len(got) != len(ref) {
		t.Fatalf("kNN returns %d neighbors, want %d", len(got), len(ref))
	}
	for i := range got {
		if got[i].Dist != ref[i].Dist {
			t.Fatalf("kNN neighbor %d at distance %d, want %d", i, got[i].Dist, ref[i].Dist)
		}
	}
}
