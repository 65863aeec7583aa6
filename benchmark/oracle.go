package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"pimzdtree/internal/core"
	"pimzdtree/internal/geom"
)

// oracleSample is how many queries of each kind the brute-force oracle
// checks per workload.
const oracleSample = 64

// faults counts wrong answers and failed operations and keeps a description
// of the first few.
type faults struct {
	wrong int
	notes []string
}

func (f *faults) fail(format string, a ...any) {
	f.wrong++
	if len(f.notes) < 5 {
		f.notes = append(f.notes, fmt.Sprintf(format, a...))
	}
}

// answers is what the system under test returned for the oracle's queries.
type answers struct {
	found  []bool
	nbrs   [][]core.Neighbor
	counts []int64
}

// oracleQueries is the fixed sample the oracle checks: membership of some
// points, the k nearest neighbours of others, and the stored points inside
// some boxes.
type oracleQueries struct {
	search []geom.Point
	knn    []geom.Point
	k      int
	boxes  []geom.Box
}

// pickOracleQueries draws a fixed-size sample from each pool.
func pickOracleQueries(rng *rand.Rand, search, knn []geom.Point, k int, boxes []geom.Box) oracleQueries {
	q := oracleQueries{k: k}
	for i := 0; i < oracleSample; i++ {
		q.search = append(q.search, search[rng.Intn(len(search))])
		q.knn = append(q.knn, knn[rng.Intn(len(knn))])
		q.boxes = append(q.boxes, boxes[rng.Intn(len(boxes))])
	}
	return q
}

// bruteForce answers q by scanning every stored point. kNN results follow
// the tree's documented total order (distance, then coordinates), so ties
// must match too.
func bruteForce(stored []geom.Point, q oracleQueries) answers {
	k := min(q.k, len(stored))
	const workers = 4
	parts := make([]answers, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lo, hi := w*len(stored)/workers, (w+1)*len(stored)/workers
			p := answers{
				found:  make([]bool, len(q.search)),
				nbrs:   make([][]core.Neighbor, len(q.knn)),
				counts: make([]int64, len(q.boxes)),
			}
			wanted := make(map[geom.Point][]int, len(q.search))
			for i, x := range q.search {
				wanted[x] = append(wanted[x], i)
			}
			// worst[i] is the distance a point must beat to enter
			// query i's list: most points fail this one comparison.
			worst := make([]uint64, len(q.knn))
			for i := range worst {
				worst[i] = math.MaxUint64
			}
			for _, s := range stored[lo:hi] {
				for _, i := range wanted[s] {
					p.found[i] = true
				}
				for i := range q.knn {
					x := &q.knn[i]
					var d uint64
					for c := 0; c < dims; c++ {
						diff := int64(s.Coords[c]) - int64(x.Coords[c])
						d += uint64(diff * diff)
					}
					if d > worst[i] || k == 0 {
						continue
					}
					p.nbrs[i] = keepNearest(p.nbrs[i], core.Neighbor{Point: s, Dist: d}, k)
					if len(p.nbrs[i]) == k {
						worst[i] = p.nbrs[i][k-1].Dist
					}
				}
				for i := range q.boxes {
					b := &q.boxes[i]
					in := true
					for c := 0; c < dims; c++ {
						in = in && s.Coords[c] >= b.Lo.Coords[c] && s.Coords[c] <= b.Hi.Coords[c]
					}
					if in {
						p.counts[i]++
					}
				}
			}
			parts[w] = p
		}(w)
	}
	wg.Wait()
	out := answers{
		found:  make([]bool, len(q.search)),
		nbrs:   make([][]core.Neighbor, len(q.knn)),
		counts: make([]int64, len(q.boxes)),
	}
	for _, p := range parts {
		for i, f := range p.found {
			out.found[i] = out.found[i] || f
		}
		for i, nb := range p.nbrs {
			for _, n := range nb {
				out.nbrs[i] = keepNearest(out.nbrs[i], n, k)
			}
		}
		for i, c := range p.counts {
			out.counts[i] += c
		}
	}
	return out
}

// keepNearest inserts n into the ascending list best, keeping at most k.
func keepNearest(best []core.Neighbor, n core.Neighbor, k int) []core.Neighbor {
	if len(best) == k && !core.NeighborLess(n, best[k-1]) {
		return best
	}
	i := sort.Search(len(best), func(i int) bool { return core.NeighborLess(n, best[i]) })
	if len(best) < k {
		best = append(best, core.Neighbor{})
	}
	copy(best[i+1:], best[i:])
	best[i] = n
	return best
}

// compare counts the oracle's disagreements with got and describes the
// first few.
func (want answers) compare(got answers) (checked, wrong int, notes []string) {
	var f faults
	note := f.fail
	for i := range want.found {
		checked++
		if i >= len(got.found) || got.found[i] != want.found[i] {
			note("search %d: oracle found=%v", i, want.found[i])
		}
	}
	for i := range want.nbrs {
		checked++
		if i >= len(got.nbrs) || !sameNeighbors(want.nbrs[i], got.nbrs[i]) {
			note("knn %d: neighbours differ from the oracle's", i)
		}
	}
	for i := range want.counts {
		checked++
		if i >= len(got.counts) || got.counts[i] != want.counts[i] {
			note("box %d: oracle counted %d", i, want.counts[i])
		}
	}
	return checked, f.wrong, f.notes
}

// sameNeighbors compares two kNN answers. Distances must agree position by
// position; points must agree too except inside a run of equal distances at
// the cut-off, where any of the tied points is a correct answer.
func sameNeighbors(want, got []core.Neighbor) bool {
	if len(want) != len(got) {
		return false
	}
	for i := range want {
		if want[i].Dist != got[i].Dist {
			return false
		}
	}
	if len(want) == 0 {
		return true
	}
	last := want[len(want)-1].Dist
	for i := range want {
		if want[i].Dist != last && want[i].Point != got[i].Point {
			return false
		}
	}
	return true
}
