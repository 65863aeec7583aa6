package core

import "pimzdtree/internal/pim"

// waveRouter is the Tree-owned scratch behind every push-pull round: a flat
// CSR (compressed sparse row) layout that replaces the per-wave
// map[int][]chunkGroup routing maps. One route() call scatters the round's
// chunk groups module-major with per-module bounds, so a round handler
// reaches its module's groups with two slice indexes and no hashing, and
// steady-state waves allocate nothing.
//
// Layout after route(p, pulled, pushed):
//
//	groups                           the round's gi enumeration: every
//	                                 pushed group module-major, then every
//	                                 pulled group in group order
//	nPush                            pushed groups: groups[:nPush]
//	groups[pushLo[m] : pushHi[m]]    m's pushed groups (group order)
//	perm[pullLo[m]   : pullHi[m]]    m's pulled groups (group order)
//	active                           module ids with >= 1 group, ascending
//	cost                             one groupCost per gi, for the caller
//	                                 to fill before chargeRound
//
// Callers scan the groups on the host in gi order (or on several workers
// into per-gi slots), then charge the round. The deterministic ascending
// active order is load-bearing: the previous maps handed pim.System.Round a
// map-iteration-order active list, which made per-round module traces and
// sampled load snapshots order-unstable run to run. All modeled totals
// (rounds, bytes, cycles) are order-independent sums, so routing through
// the CSR changes no accounting.
//
// counts/pcount are kept all-zero between builds (route re-zeroes each
// active module as it lays out its bounds), which keeps a build
// O(groups + active + P) with the P term a single read-only scan.
type waveRouter struct {
	counts []int // per-module pushed groups; zero outside route()
	pcount []int // per-module pulled groups; zero outside route()
	pushLo []int
	pushHi []int
	pullLo []int
	pullHi []int
	active []int
	groups []chunkGroup // gi enumeration
	nPush  int
	perm   []chunkGroup // pulled groups, module-major
	cost   []groupCost  // per gi

	// partition() output, preserving group order (the gi enumeration takes
	// pulled groups in this order so result merges stay deterministic).
	pulledG []chunkGroup
	pushedG []chunkGroup

	// Per-gi exit slots, reused wave to wave.
	exitArena [][]entry

	// Ping-pong next-frontier buffers for runPushPullWaves: exits of wave w
	// are concatenated into the buffer of parity w, which is always distinct
	// from the backing of the current frontier (written at parity w-1).
	front [2][]entry
}

// groupCost is what one group of a round costs: the work of its queries'
// traversals and the bytes they send back to the CPU.
type groupCost struct{ work, sent int64 }

// ensure sizes the per-module arrays for p modules.
func (r *waveRouter) ensure(p int) {
	if len(r.counts) >= p {
		return
	}
	r.counts = make([]int, p)
	r.pcount = make([]int, p)
	r.pushLo = make([]int, p)
	r.pushHi = make([]int, p)
	r.pullLo = make([]int, p)
	r.pullHi = make([]int, p)
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
// other group slices (they must not alias groups or perm).
func (r *waveRouter) route(p int, pulled, pushed []chunkGroup) {
	r.ensure(p)
	for _, g := range pulled {
		r.pcount[g.chunk.Module]++
	}
	for _, g := range pushed {
		r.counts[g.chunk.Module]++
	}
	// Lay out each active module's bounds, its Hi doubling as the scatter
	// cursor, and restore the all-zero invariant on the way.
	r.active = r.active[:0]
	push, pull := 0, 0
	for m := 0; m < p; m++ {
		if r.counts[m]+r.pcount[m] > 0 {
			r.active = append(r.active, m)
			r.pushLo[m], r.pushHi[m] = push, push
			r.pullLo[m], r.pullHi[m] = pull, pull
			push += r.counts[m]
			pull += r.pcount[m]
			r.counts[m], r.pcount[m] = 0, 0
		}
	}
	n := len(pushed) + len(pulled)
	r.groups = sized(r.groups, n)
	r.perm = sized(r.perm, len(pulled))
	for _, g := range pushed {
		m := g.chunk.Module
		r.groups[r.pushHi[m]] = g
		r.pushHi[m]++
	}
	for _, g := range pulled {
		m := g.chunk.Module
		r.perm[r.pullHi[m]] = g
		r.pullHi[m]++
	}
	r.nPush = len(pushed)
	copy(r.groups[r.nPush:], pulled)
	r.cost = sized(r.cost, n)
}

// pullsOf returns module m's pulled groups for the routed round.
func (r *waveRouter) pullsOf(m int) []chunkGroup { return r.perm[r.pullLo[m]:r.pullHi[m]] }

// pushesOf returns module m's pushed groups for the routed round.
func (r *waveRouter) pushesOf(m int) []chunkGroup { return r.groups[r.pushLo[m]:r.pushHi[m]] }

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

// exitSlots returns one reusable exit buffer per group of the routed round.
func (r *waveRouter) exitSlots() [][]entry { return growSlots(&r.exitArena, len(r.groups)) }

// nextFrontier returns the parity-selected ping-pong buffer, truncated.
func (r *waveRouter) nextFrontier(wave int) []entry {
	return r.front[wave&1][:0]
}

// chargeRound charges the routed round from the per-gi costs the caller has
// filled in: each pulled group's module ships its chunk's routing structure;
// each pushed group's module receives msgBytes per query, spends the
// group's work and sends its bytes back. The host's scans of the pulled
// groups are then charged as one CPU phase, their bytes on top of the
// structures shipped. The handlers only add up what the caller computed.
func (t *Tree) chargeRound(msgBytes int64) {
	r := &t.router
	t.sys.Round(r.active, func(m *pim.Module) {
		for _, g := range r.pullsOf(m.ID) {
			m.Send(g.chunk.StructBytes)
		}
		cost := r.cost[r.pushLo[m.ID]:]
		for j, g := range r.pushesOf(m.ID) {
			m.Recv(int64(len(g.entries)) * msgBytes)
			m.Work(cost[j].work)
			m.Send(cost[j].sent)
		}
	})
	pulled := r.groups[r.nPush:]
	if len(pulled) == 0 {
		return
	}
	var work, bytes int64
	for i, g := range pulled {
		c := r.cost[r.nPush+i]
		work += c.work
		bytes += c.sent + g.chunk.StructBytes
	}
	t.pulls += int64(len(pulled))
	t.sys.Recorder().Add("chunk-pulls", int64(len(pulled)))
	t.sys.CPUPhase(work, bytes, 0)
}
