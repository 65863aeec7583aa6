package core

// In-place neighbor selection (ISSUE 6): the kNN host phases used to run
// two full sort.Sort calls per query over every collected candidate —
// O(c log c) with an interface-dispatched comparator — when derive-sphere
// needs only the k-th smallest distance and the final filter only the
// first k entries of the total order. Quickselect narrows each to an
// expected-O(c) partition plus an O(m log m) sort of the small survivor
// prefix, allocation-free over the tree-owned candidate arena.

// lessByDist orders neighbors by distance alone. Selection under it picks
// a tie-arbitrary subset, but the k-th smallest distance *value* — all
// derive-sphere consumes — is independent of how ties are broken.
func lessByDist(a, b Neighbor) bool { return a.Dist < b.Dist }

// lessByDistPoint is the total order (distance, then coordinates) the
// final filter sorts under; under a total order selectSmallest yields
// exactly the first-m set of the full sort.
func lessByDistPoint(a, b Neighbor) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	return lessPoint(a.Point, b.Point)
}

// NeighborLess exposes the (distance, then coordinates) total order kNN
// results are sorted under. Cross-tree result mergers (internal/shard)
// must compare under the same order to reproduce single-tree output
// exactly, ties included.
func NeighborLess(a, b Neighbor) bool { return lessByDistPoint(a, b) }

// insertionSortNeighbors sorts small slices in place.
func insertionSortNeighbors(ns []Neighbor, less func(a, b Neighbor) bool) {
	for i := 1; i < len(ns); i++ {
		for j := i; j > 0 && less(ns[j], ns[j-1]); j-- {
			ns[j], ns[j-1] = ns[j-1], ns[j]
		}
	}
}

// partitionNeighbors partitions ns[lo:hi] around a median-of-three pivot,
// returning the pivot's final index: everything left of it is less,
// everything right of it is not.
func partitionNeighbors(ns []Neighbor, lo, hi int, less func(a, b Neighbor) bool) int {
	mid := int(uint(lo+hi) >> 1)
	if less(ns[mid], ns[lo]) {
		ns[mid], ns[lo] = ns[lo], ns[mid]
	}
	if less(ns[hi-1], ns[lo]) {
		ns[hi-1], ns[lo] = ns[lo], ns[hi-1]
	}
	if less(ns[hi-1], ns[mid]) {
		ns[hi-1], ns[mid] = ns[mid], ns[hi-1]
	}
	ns[mid], ns[hi-1] = ns[hi-1], ns[mid]
	pivot := ns[hi-1]
	i := lo
	for j := lo; j < hi-1; j++ {
		if less(ns[j], pivot) {
			ns[i], ns[j] = ns[j], ns[i]
			i++
		}
	}
	ns[i], ns[hi-1] = ns[hi-1], ns[i]
	return i
}

// selectSmallest rearranges ns in place so that ns[:m] holds the m
// smallest elements under less. With a total order the resulting set is
// exactly the first m elements of a full sort (internal order arbitrary).
func selectSmallest(ns []Neighbor, m int, less func(a, b Neighbor) bool) {
	if m <= 0 || m >= len(ns) {
		return
	}
	lo, hi := 0, len(ns)
	for hi-lo > 12 {
		p := partitionNeighbors(ns, lo, hi, less)
		if p >= m {
			hi = p
		} else {
			lo = p + 1
		}
	}
	insertionSortNeighbors(ns[lo:hi], less)
}

// sortNeighbors sorts ns in place under less: quicksort recursing into
// the smaller half, insertion sort below the cutoff.
func sortNeighbors(ns []Neighbor, less func(a, b Neighbor) bool) {
	for len(ns) > 12 {
		p := partitionNeighbors(ns, 0, len(ns), less)
		if p < len(ns)-p {
			sortNeighbors(ns[:p], less)
			ns = ns[p+1:]
		} else {
			sortNeighbors(ns[p+1:], less)
			ns = ns[:p]
		}
	}
	insertionSortNeighbors(ns, less)
}

// selectFinalNeighbors cuts arena to its first k distinct (Dist, Point)
// values — exactly what sorting the whole arena, deduping, and truncating
// to k would return — via quickselect over a window that starts at mInit
// (the final filter passes k + |stage-A candidates|, covering every
// candidate/sphere duplicate pair) and doubles while it holds fewer than
// k distinct values (only stored multi-points trigger a widening). The
// returned slice aliases arena. mInit must be >= 1.
func selectFinalNeighbors(arena []Neighbor, k, mInit int) []Neighbor {
	m := mInit
	for {
		if m > len(arena) {
			m = len(arena)
		}
		selectSmallest(arena, m, lessByDistPoint)
		sortNeighbors(arena[:m], lessByDistPoint)
		if m == len(arena) || countDistinctSorted(arena[:m]) >= k {
			break
		}
		m *= 2
	}
	ns := dedupeNeighbors(arena[:m])
	if len(ns) > k {
		ns = ns[:k]
	}
	return ns
}

// countDistinctSorted returns the number of distinct (Dist, Point) values
// in a slice sorted under lessByDistPoint, without mutating it.
func countDistinctSorted(ns []Neighbor) int {
	cnt := 0
	for i, n := range ns {
		if i > 0 && n.Dist == ns[i-1].Dist && n.Point.Equal(ns[i-1].Point) {
			continue
		}
		cnt++
	}
	return cnt
}

// finalCut returns what selectFinalNeighbors(arena, k, m0) returns, the
// cheap way. The m0-th smallest distance, an integer quickselect over a
// copy of the distances (dists, the caller's reused scratch), bounds the
// first m0 entries of the (Dist, Point) order; the entries at or below it
// are exactly a prefix of that order, so only they move to the front and
// get sorted and deduped. m0 = k + |stage-A candidates| covers every
// candidate/sphere duplicate pair, so only stored multi-points can leave
// fewer than k distinct values in the window, and then selectFinalNeighbors
// widens it. The result aliases arena; dists is returned for reuse.
func finalCut(arena []Neighbor, k, m0 int, dists []uint64) ([]Neighbor, []uint64) {
	win := arena
	if m0 < len(arena) {
		dists = dists[:0]
		for i := range arena {
			dists = append(dists, arena[i].Dist)
		}
		cut := nthSmallest(dists, m0-1)
		j := 0
		for i := range arena {
			if arena[i].Dist <= cut {
				arena[i], arena[j] = arena[j], arena[i]
				j++
			}
		}
		win = arena[:j]
	}
	sortNeighbors(win, lessByDistPoint)
	if len(win) < len(arena) && countDistinctSorted(win) < k {
		return selectFinalNeighbors(arena, k, m0), dists
	}
	ns := dedupeNeighbors(win)
	return ns[:min(k, len(ns))], dists
}

// nthSmallest returns the m-th smallest of xs (0-based), reordering xs. A
// three-way partition keeps runs of equal distances linear.
func nthSmallest(xs []uint64, m int) uint64 {
	lo, hi := 0, len(xs)
	for hi-lo > 16 {
		a, b, c := xs[lo], xs[int(uint(lo+hi)>>1)], xs[hi-1]
		pivot := max(min(a, b), min(max(a, b), c)) // median of three
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch v := xs[i]; {
			case v < pivot:
				xs[lt], xs[i] = v, xs[lt]
				lt++
				i++
			case v > pivot:
				gt--
				xs[gt], xs[i] = v, xs[gt]
			default:
				i++
			}
		}
		switch {
		case m < lt:
			hi = lt
		case m >= gt:
			lo = gt
		default:
			return pivot
		}
	}
	s := xs[lo:hi]
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return xs[m]
}
