package core

import "pimzdtree/internal/parallel"

// waveRouter is the Tree-owned scratch behind every push-pull round: a flat
// CSR (compressed sparse row) layout that replaces the per-wave
// map[int][]chunkGroup routing maps. One route() call scatters the wave's
// chunk groups into a module-major permutation with per-module offsets, so
// a round handler reaches its module's groups with two slice indexes and no
// hashing, and steady-state waves allocate nothing.
//
// Layout after route(p, pulled, pushed):
//
//	perm[offsets[m] : mids[m]]       m's pulled groups (group order)
//	perm[mids[m]    : offsets[m+1]]  m's pushed groups (group order)
//	active                           module ids with >= 1 group, ascending
//	slot[m]                          dense index of m in active (active m only)
//	pushBase[m]                      rank of m's first pushed group in the
//	                                 module-major pushed enumeration
//	queued                           queries in the pushed groups: the work
//	                                 the round's handlers share, which
//	                                 pim.System.RoundN sizes its schedule by
//
// The deterministic ascending active order is load-bearing: the previous
// maps handed pim.System.Round a map-iteration-order active list, which
// made per-round module traces and sampled load snapshots order-unstable
// run to run. All modeled totals (rounds, bytes, cycles) are order-
// independent sums, so routing through the CSR changes no accounting.
//
// counts/pcount are kept all-zero between builds (route re-zeroes only the
// active modules it touched), which keeps a build O(groups + active + P)
// with the P term a single read-only scan.
type waveRouter struct {
	counts   []int // per-module total groups; zero outside route()
	pcount   []int // per-module pulled groups; zero outside route()
	offsets  []int // CSR row offsets, len P+1
	mids     []int // pulled/pushed boundary per module
	pushBase []int // module-major rank of first pushed group
	slot     []int32
	active   []int
	perm     []chunkGroup
	queued   int // entries across the routed round's pushed groups

	// partition() output, preserving group order (the host scans pulled
	// groups in this order so result merges stay deterministic).
	pulledG []chunkGroup
	pushedG []chunkGroup

	// Per-slot arenas, reused wave to wave.
	exitArena [][]entry // one per active module
	pullArena [][]entry // one per pulled group (host-side exits/results)
	workAcc   []int64   // per-host-worker work accumulators
	byteAcc   []int64   // per-host-worker byte accumulators

	// Ping-pong next-frontier buffers for runPushPullWaves: exits of wave w
	// are concatenated into the buffer of parity w, which is always distinct
	// from the backing of the current frontier (written at parity w-1).
	front [2][]entry
}

// ensure sizes the per-module arrays for p modules.
func (r *waveRouter) ensure(p int) {
	if len(r.counts) >= p {
		return
	}
	r.counts = make([]int, p)
	r.pcount = make([]int, p)
	r.offsets = make([]int, p+1)
	r.mids = make([]int, p)
	r.pushBase = make([]int, p)
	r.slot = make([]int32, p)
}

// partition splits groups into router-owned pulled/pushed lists by pullIf,
// preserving relative group order in both.
func (r *waveRouter) partition(groups []chunkGroup, pullIf func(chunkGroup) bool) (pulled, pushed []chunkGroup) {
	r.pulledG = r.pulledG[:0]
	r.pushedG = r.pushedG[:0]
	for _, g := range groups {
		if pullIf(g) {
			r.pulledG = append(r.pulledG, g)
		} else {
			r.pushedG = append(r.pushedG, g)
		}
	}
	return r.pulledG, r.pushedG
}

// route builds the CSR layout for one round. Either list may be empty; the
// inputs are only read, so callers may pass partition() results or any
// other group slices (they must not alias perm, which no caller sees).
func (r *waveRouter) route(p int, pulled, pushed []chunkGroup) {
	r.ensure(p)
	n := len(pulled) + len(pushed)
	if cap(r.perm) < n {
		r.perm = make([]chunkGroup, n)
	}
	perm := r.perm[:n]

	for _, g := range pulled {
		r.pcount[g.chunk.Module]++
	}
	r.queued = 0
	for _, g := range pushed {
		r.counts[g.chunk.Module]++
		r.queued += len(g.entries)
	}
	r.active = r.active[:0]
	for m := 0; m < p; m++ {
		if r.counts[m]+r.pcount[m] > 0 {
			r.slot[m] = int32(len(r.active))
			r.active = append(r.active, m)
			r.counts[m] += r.pcount[m]
		}
	}
	total := parallel.ExclusiveScanInto(r.counts[:p], r.offsets[:p])
	r.offsets[p] = total

	// Scatter with the count arrays doubling as cursors, then restore the
	// all-zero invariant. Scatter order within a module preserves group
	// order, pulled before pushed.
	base := 0
	for _, m := range r.active {
		r.counts[m] = r.offsets[m]
		r.mids[m] = r.offsets[m] + r.pcount[m]
		r.pcount[m] = r.mids[m]
		r.pushBase[m] = base
		base += r.offsets[m+1] - r.mids[m]
	}
	for _, g := range pulled {
		m := g.chunk.Module
		perm[r.counts[m]] = g
		r.counts[m]++
	}
	for _, g := range pushed {
		m := g.chunk.Module
		perm[r.pcount[m]] = g
		r.pcount[m]++
	}
	for _, m := range r.active {
		r.counts[m] = 0
		r.pcount[m] = 0
	}
}

// pullsOf returns module m's pulled groups for the routed round.
func (r *waveRouter) pullsOf(m int) []chunkGroup { return r.perm[r.offsets[m]:r.mids[m]] }

// pushesOf returns module m's pushed groups for the routed round.
func (r *waveRouter) pushesOf(m int) []chunkGroup { return r.perm[r.mids[m]:r.offsets[m+1]] }

// growSlots returns n reusable slots from *arena, each truncated to len 0
// (capacity is kept, so steady-state waves reuse the same backing arrays).
func growSlots[T any](arena *[][]T, n int) [][]T {
	a := *arena
	if cap(a) < n {
		next := make([][]T, n)
		copy(next, a[:cap(a)])
		a = next
	}
	a = a[:n]
	for i := range a {
		a[i] = a[i][:0]
	}
	*arena = a
	return a
}

// exitSlots returns one reusable exit buffer per active module.
func (r *waveRouter) exitSlots(n int) [][]entry { return growSlots(&r.exitArena, n) }

// pullSlots returns one reusable host-side buffer per pulled group.
func (r *waveRouter) pullSlots(n int) [][]entry { return growSlots(&r.pullArena, n) }

// accumulators returns zeroed per-worker (work, bytes) accumulators.
func (r *waveRouter) accumulators(workers int) (work, bytes []int64) {
	if cap(r.workAcc) < workers {
		r.workAcc = make([]int64, workers)
		r.byteAcc = make([]int64, workers)
	}
	work = r.workAcc[:workers]
	bytes = r.byteAcc[:workers]
	for i := range work {
		work[i] = 0
		bytes[i] = 0
	}
	return work, bytes
}

// nextFrontier returns the parity-selected ping-pong buffer, truncated.
func (r *waveRouter) nextFrontier(wave int) []entry {
	return r.front[wave&1][:0]
}

// scanPulled runs the host-side traversal of the pulled groups in parallel
// across groups (serial within a group; workers claim groups dynamically,
// because pulled groups are the skewed ones), keeping the BSP accounting
// exact: per-worker work/byte accumulators are summed into one total, and
// any per-group output must land in a per-group (or per-query) slot so
// callers can merge it deterministically regardless of scheduling. body
// receives the worker index (for caller-side scratch; the round that ships
// the pulled structures has joined by now, so its worker ids are free
// again) and the group index, and returns the group's host work and result
// bytes. The returned totals include the pulled structure bytes each group
// ships.
func (t *Tree) scanPulled(pulled []chunkGroup, body func(worker, gi int, g chunkGroup) (work, bytes int64)) (work, bytes int64) {
	wAcc, bAcc := t.router.accumulators(parallel.Workers())
	parallel.ForDynamic(len(pulled), func(worker, lo, hi int) {
		for i := lo; i < hi; i++ {
			g := pulled[i]
			w, b := body(worker, i, g)
			wAcc[worker] += w
			bAcc[worker] += b + g.chunk.StructBytes
		}
	})
	t.pulls += int64(len(pulled))
	for w := range wAcc {
		work += wAcc[w]
		bytes += bAcc[w]
	}
	return work, bytes
}
