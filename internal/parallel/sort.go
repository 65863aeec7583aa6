package parallel

import (
	"cmp"
	"slices"
	"sort"
)

const (
	radixBits    = 11
	radixBuckets = 1 << radixBits
	radixMask    = radixBuckets - 1

	// seqSortCutoff is the input size below which the stdlib sorts beat
	// the radix machinery.
	seqSortCutoff = 4096

	// sortGrain is the minimum per-worker block of the parallel sort and
	// semisort passes; below it, extra workers cost more than they help.
	sortGrain = 4096
)

// Sorter carries reusable scratch for repeated sorts and semisorts of the
// same item type: the scatter buffer, the precomputed key side arrays, the
// per-worker histograms, and the semisort group table. A long-lived batch
// loop holds one Sorter and sorts allocation-free at steady state; Trim
// hands back what one outsized batch left behind. A Sorter must not be
// used concurrently; the zero value is ready to use.
type Sorter[T any] struct {
	buf      []T      // scatter destination
	keys     []uint64 // keyOf(items[i]), computed once per call
	keysAlt  []uint64 // key scatter destination, permuted with buf
	counts   []int    // per-worker histograms + their (bucket, worker) transpose
	groups   []Group  // semisort result, reused across calls
	distinct []uint64 // semisort distinct keys
	gtab     groupTable
	small    pairSort[T] // SortPairs below the radix cutoff
}

// SortKeys sorts a slice of uint64 Morton keys with a block-parallel LSD
// radix sort over 11-bit digits: per-worker histograms are merged by a
// parallel exclusive scan into per-worker scatter offsets, so every pass
// (count, merge, scatter) runs on all workers. The paper's CPU phases use
// parallel radix sort [Dong et al., PPoPP'24]; this is the practical
// equivalent for 64-bit keys. Scratch comes from pools: steady-state calls
// allocate nothing.
func SortKeys(keys []uint64) {
	n := len(keys)
	if n < seqSortCutoff {
		slices.Sort(keys)
		return
	}
	p := workersFor(n, sortGrain)
	varying := varyingBits(keys, p)
	if varying == 0 {
		return
	}
	alt := u64Pool.get(n)
	counts := intPool.get(2 * p * radixBuckets)
	src, dst := keys, alt
	for shift := uint(0); shift < 64; shift += radixBits {
		if varying>>shift&radixMask == 0 {
			continue
		}
		radixOffsets(src, counts, p, shift)
		hist := counts[:p*radixBuckets]
		BlocksN(p, n, func(w, lo, hi int) {
			row := hist[w*radixBuckets : (w+1)*radixBuckets]
			for _, k := range src[lo:hi] {
				b := k >> shift & radixMask
				dst[row[b]] = k
				row[b]++
			}
		})
		src, dst = dst, src
	}
	if &src[0] != &keys[0] {
		BlocksN(p, n, func(_, lo, hi int) { copy(keys[lo:hi], src[lo:hi]) })
	}
	u64Pool.put(alt)
	intPool.put(counts)
}

// SortBy sorts items in parallel by the uint64 key extracted by keyOf.
// The sort is stable with respect to equal keys. The keys are extracted
// once into a side array and permuted alongside the items, so keyOf runs
// exactly len(items) times regardless of the number of radix passes.
func (s *Sorter[T]) SortBy(items []T, keyOf func(T) uint64) {
	n := len(items)
	if n < seqSortCutoff {
		slices.SortStableFunc(items, func(a, b T) int { return cmp.Compare(keyOf(a), keyOf(b)) })
		return
	}
	p := workersFor(n, sortGrain)
	s.ensureKeys(n)
	varying := s.fillKeys(items, keyOf, p)
	s.radixPairs(s.keys[:n], items, varying, p)
}

// SortPairs sorts keys ascending, in place, and applies the same stable
// permutation to items (len(items) == len(keys)). With items the indexes
// 0..n-1 it yields the sorted keys and the sorting permutation while moving
// 8+sizeof(T) bytes per element per radix pass, whatever the records the
// indexes stand for weigh.
func (s *Sorter[T]) SortPairs(keys []uint64, items []T) {
	n := len(keys)
	if len(items) != n {
		panic("parallel: SortPairs length mismatch")
	}
	if n < seqSortCutoff {
		s.small = pairSort[T]{keys, items}
		sort.Stable(&s.small)
		s.small = pairSort[T]{} // do not pin the caller's arrays
		return
	}
	p := workersFor(n, sortGrain)
	s.radixPairs(keys, items, varyingBits(keys, p), p)
}

// pairSort is SortPairs below the radix cutoff: the stdlib's stable sort
// over the two arrays in lockstep. It lives in the Sorter so that handing it
// to sort.Stable allocates nothing.
type pairSort[T any] struct {
	keys  []uint64
	items []T
}

func (p *pairSort[T]) Len() int           { return len(p.keys) }
func (p *pairSort[T]) Less(i, j int) bool { return p.keys[i] < p.keys[j] }
func (p *pairSort[T]) Swap(i, j int) {
	p.keys[i], p.keys[j] = p.keys[j], p.keys[i]
	p.items[i], p.items[j] = p.items[j], p.items[i]
}

// radixPairs is the LSD radix sort behind SortBy and SortPairs: keys and
// items (both length n >= seqSortCutoff) are scattered in lockstep through
// the Sorter's ping-pong buffers, one pass per digit that varies, and end
// up sorted in place.
func (s *Sorter[T]) radixPairs(keys []uint64, items []T, varying uint64, p int) {
	if varying == 0 {
		return
	}
	n := len(keys)
	s.ensureAlt(n)
	if c := 2 * p * radixBuckets; cap(s.counts) < c {
		s.counts = make([]int, c)
	} else {
		s.counts = s.counts[:c]
	}
	src, dst := items, s.buf[:n]
	ksrc, kdst := keys, s.keysAlt[:n]
	hist := s.counts[:p*radixBuckets]
	for shift := uint(0); shift < 64; shift += radixBits {
		if varying>>shift&radixMask == 0 {
			continue
		}
		radixOffsets(ksrc, s.counts, p, shift)
		BlocksN(p, n, func(w, lo, hi int) {
			row := hist[w*radixBuckets : (w+1)*radixBuckets]
			for i := lo; i < hi; i++ {
				k := ksrc[i]
				b := k >> shift & radixMask
				pos := row[b]
				row[b] = pos + 1
				kdst[pos] = k
				dst[pos] = src[i]
			}
		})
		src, dst = dst, src
		ksrc, kdst = kdst, ksrc
	}
	if &src[0] != &items[0] {
		BlocksN(p, n, func(_, lo, hi int) {
			copy(items[lo:hi], src[lo:hi])
			copy(keys[lo:hi], ksrc[lo:hi])
		})
	}
}

// ensureAlt grows the ping-pong buffers for an n-element sort.
func (s *Sorter[T]) ensureAlt(n int) {
	if cap(s.buf) < n {
		s.buf = make([]T, n)
	}
	if cap(s.keysAlt) < n {
		s.keysAlt = make([]uint64, n)
	}
}

func (s *Sorter[T]) ensureKeys(n int) {
	if cap(s.keys) < n {
		s.keys = make([]uint64, n)
	}
}

// Trim ends a batch that sorted at most used elements at a time: element
// buffers an earlier, larger batch grew beyond what Keep retains for used
// are released.
func (s *Sorter[T]) Trim(used int) {
	s.buf = Keep(s.buf, used)
	s.keys = Keep(s.keys, used)
	s.keysAlt = Keep(s.keysAlt, used)
}

// fillKeys computes keyOf for every item into s.keys and returns the mask
// of key bits that vary across the input (per-worker OR/AND folded during
// the same pass, so digit skipping costs no extra sweep).
func (s *Sorter[T]) fillKeys(items []T, keyOf func(T) uint64, p int) uint64 {
	keys := s.keys[:len(items)]
	oa := u64Pool.get(2 * p)
	BlocksN(p, len(items), func(w, lo, hi int) {
		var orAll uint64
		andAll := ^uint64(0)
		for i := lo; i < hi; i++ {
			k := keyOf(items[i])
			keys[i] = k
			orAll |= k
			andAll &= k
		}
		oa[2*w], oa[2*w+1] = orAll, andAll
	})
	var orAll uint64
	andAll := ^uint64(0)
	for w := 0; w < p; w++ {
		orAll |= oa[2*w]
		andAll &= oa[2*w+1]
	}
	u64Pool.put(oa)
	return orAll &^ andAll
}

// varyingBits returns the mask of bits that differ across keys.
func varyingBits(keys []uint64, p int) uint64 {
	oa := u64Pool.get(2 * p)
	BlocksN(p, len(keys), func(w, lo, hi int) {
		var orAll uint64
		andAll := ^uint64(0)
		for _, k := range keys[lo:hi] {
			orAll |= k
			andAll &= k
		}
		oa[2*w], oa[2*w+1] = orAll, andAll
	})
	var orAll uint64
	andAll := ^uint64(0)
	for w := 0; w < p; w++ {
		orAll |= oa[2*w]
		andAll &= oa[2*w+1]
	}
	u64Pool.put(oa)
	return orAll &^ andAll
}

// radixOffsets counts the digit at shift per worker into the first half of
// counts (one histogram row per worker), then merges the rows into
// per-worker scatter offsets: the rows are transposed to (bucket, worker)
// order in the second half, a parallel exclusive scan turns them into
// absolute positions (stable: bucket-major, then worker, then block
// order), and the scanned values are transposed back into the rows.
func radixOffsets(keys []uint64, counts []int, p int, shift uint) {
	n := len(keys)
	hist := counts[:p*radixBuckets]
	trans := counts[p*radixBuckets : 2*p*radixBuckets]
	BlocksN(p, n, func(w, lo, hi int) {
		row := hist[w*radixBuckets : (w+1)*radixBuckets]
		clear(row)
		for _, k := range keys[lo:hi] {
			row[k>>shift&radixMask]++
		}
	})
	For(radixBuckets, func(b int) {
		for w := 0; w < p; w++ {
			trans[b*p+w] = hist[w*radixBuckets+b]
		}
	})
	scanInto(trans, trans)
	BlocksN(p, p, func(_, lo, hi int) {
		for w := lo; w < hi; w++ {
			row := hist[w*radixBuckets : (w+1)*radixBuckets]
			for b := range row {
				row[b] = trans[b*p+w]
			}
		}
	})
}

// CountingSortWork returns the abstract CPU work units charged for
// semisorting n items (linear, per the work-efficient semisort the paper
// cites).
func CountingSortWork(n int) int64 { return int64(n) }
