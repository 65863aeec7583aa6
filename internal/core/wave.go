package core

import (
	"fmt"
	"slices"

	"pimzdtree/internal/geom"
	"pimzdtree/internal/parallel"
	"pimzdtree/internal/pim"
)

// waveScanFunc traverses one in-flight query within its chunk, appending
// chunk exits to *exits and returning the compute work and the bytes the
// traversal sends back to the CPU. cpuSide is true when the chunk was
// pulled and the traversal runs on the host (implementations typically
// rebate the PIM multiply premium there). Implementations must be safe for
// concurrent invocation on different chunk groups — a wave's module
// handlers run on several host workers once the frontier is large enough
// (pim.System.RoundN), and so do the pulled groups' host scans; worker
// (< parallel.Workers()) is a stable scratch index (distinct concurrent
// invocations never share one) and gi is the group's rank in the wave's
// deterministic enumeration — pushed groups module-major first, then
// pulled groups in group order — so per-group result slots can be merged
// in a scheduling-independent order.
type waveScanFunc func(c *Chunk, e entry, cpuSide bool, worker, gi int, exits *[]entry) (work, outBytes int64)

// runPushPullWaves drives the generic push-pull BSP loop shared by kNN and
// box traversals (§3.3 applied level by level, as in Alg. 1 step 4): each
// wave groups the frontier by meta-node, pulls chunks holding more than
// K = B queries (the paper's L2 threshold) to the CPU, pushes the rest to
// their modules in a single round, and advances every query one meta-level.
// prepWave (optional) runs after routing with the wave's group count, so
// scans can size per-group result slots. afterWave (optional) runs between
// waves on the collected exits — kNN uses it to tighten bounds and prune —
// and returns the next frontier.
//
// Routing runs on the Tree's CSR router: no per-wave maps, and the pulled
// groups' host traversals run in parallel across groups with per-worker
// accumulators feeding one CPU phase (waveScanFunc requires cross-group
// concurrency safety). Exits land in per-module and per-pulled-group slots
// and concatenate in a fixed order (active modules ascending, then pulled
// groups in group order), so the next frontier — and everything
// order-sensitive downstream — is identical to the serial schedule.
func (t *Tree) runPushPullWaves(frontier []entry, msgBytes int64, scan waveScanFunc, prepWave func(nGroups int), afterWave func([]entry) []entry) {
	rec := t.sys.Recorder()
	r := &t.router
	for wave := 0; len(frontier) > 0; wave++ {
		if rec.Enabled() {
			rec.BeginPhase(fmt.Sprintf("wave-%d", wave))
		}
		groups := t.groupByChunk(frontier)
		pulled, pushed := r.partition(groups, func(g chunkGroup) bool {
			return int64(len(g.entries)) > t.chunkB
		})
		r.route(t.P(), pulled, pushed)
		active := r.active
		nPush := len(pushed)
		if prepWave != nil {
			prepWave(len(groups))
		}
		exitSlots := r.exitSlots(len(active))
		pullSlots := r.pullSlots(len(pulled))

		// One BSP round: pulled chunks ship their masters up; pushed
		// queries execute on their modules.
		t.sys.RoundN(active, r.queued, func(m *pim.Module) {
			exits := &exitSlots[r.slot[m.ID]]
			for _, g := range r.pullsOf(m.ID) {
				m.Send(g.chunk.StructBytes)
			}
			base := r.pushBase[m.ID]
			for j, g := range r.pushesOf(m.ID) {
				m.Recv(int64(len(g.entries)) * msgBytes)
				for _, e := range g.entries {
					work, outBytes := scan(g.chunk, e, false, m.Worker(), base+j, exits)
					m.Work(work)
					m.Send(outBytes)
				}
			}
		})

		// Pulled chunks run on the CPU against master data: the structure
		// crossed the channel above; the payload bytes each traversal
		// actually reads cross (and hit host DRAM) per visit.
		if len(pulled) > 0 {
			pullWork, pullBytes := t.scanPulled(pulled, func(worker, gi int, g chunkGroup) (int64, int64) {
				var work, bytes int64
				for _, e := range g.entries {
					w, b := scan(g.chunk, e, true, worker, nPush+gi, &pullSlots[gi])
					work += w
					bytes += b
				}
				return work, bytes
			})
			rec.Add("chunk-pulls", int64(len(pulled)))
			t.sys.CPUPhase(pullWork, pullBytes, 0)
		}

		next := r.nextFrontier(wave)
		for _, ex := range exitSlots {
			next = append(next, ex...)
		}
		for _, ex := range pullSlots {
			next = append(next, ex...)
		}
		r.front[wave&1] = next
		if afterWave != nil {
			next = afterWave(next)
		}
		if rec.Enabled() {
			rec.EndPhase()
		}
		frontier = next
	}
}

// hostForkMin is the batch size (queries) from which the per-query host
// loops around the waves — L0 prefixes, sphere derivation, the final kNN
// filter, the stage-A merge — run on the host's workers. A query costs
// such a loop 0.2-2 us, so a few hundred pay for the fork; the one- to
// sixteen-query batches of a serving epoch stay on the caller.
const hostForkMin = 256

// hostScratch is one host worker's private scratch, indexed by the worker
// ids parallel.ForDynamic / BlocksN and pim.Module.Worker hand out: the
// worker may be running a module's handler, a pulled group's scan or a
// block of per-query host work, but never two of them at once.
type hostScratch struct {
	cand  candState  // stage-A chunk-scan candidate set
	arena []Neighbor // final-filter candidates of the query in hand
	front []entry    // L0-prefix chunk entries of the worker's query block
	work  int64      // host work of the worker's share of the current loop
}

// hostWorkers returns the per-worker scratch, one per host worker.
func (t *Tree) hostWorkers() []hostScratch {
	n := parallel.Workers()
	if cap(t.workers) < n {
		next := make([]hostScratch, n)
		copy(next, t.workers[:cap(t.workers)])
		t.workers = next
	}
	t.workers = t.workers[:n]
	return t.workers
}

// forkWidth returns how many workers a per-query host loop over n queries
// spreads across: all of them from hostForkMin up, else the caller alone.
func forkWidth(n int) int {
	if n < hostForkMin {
		return 1
	}
	return parallel.Workers()
}

// forQueries runs body(worker, lo, hi) over the n queries of a batch: on
// the host's workers, claiming runs dynamically (per-query cost is
// data-dependent), when the batch is large enough to pay for the fork,
// else on the caller as worker 0. Results must land in per-query slots.
func forQueries(n int, body func(worker, lo, hi int)) {
	if n >= hostForkMin {
		parallel.ForDynamic(n, body)
	} else if n > 0 {
		body(0, 0, n)
	}
}

// expandL0 walks the CPU-resident L0 prefix of a wave traversal for each
// of the batch's n queries — expand(worker, qi, frontier) appends query
// qi's chunk entries and returns its host work — charges the summed work
// as one CPU phase and returns the first wave's frontier. Large batches
// split into one contiguous query block per worker, and the blocks'
// frontiers concatenate in worker order, which is query order: the
// frontier is the one the serial loop builds, whatever GOMAXPROCS is.
func (t *Tree) expandL0(n int, expand func(worker int, qi int32, frontier *[]entry) int64) []entry {
	ws := t.hostWorkers()[:forkWidth(n)]
	for w := range ws {
		ws[w].front, ws[w].work = ws[w].front[:0], 0
	}
	parallel.BlocksN(len(ws), n, func(w, lo, hi int) {
		front := ws[w].front
		var work int64
		for i := lo; i < hi; i++ {
			work += expand(w, int32(i), &front)
		}
		ws[w].front, ws[w].work = front, work
	})
	frontier := t.frontierBuf[:0]
	var cpuWork int64
	for w := range ws {
		frontier = append(frontier, ws[w].front...)
		cpuWork += ws[w].work
	}
	t.frontierBuf = frontier
	t.sys.CPUPhase(cpuWork, 0, 0)
	return frontier
}

// foundPoint is one stored point a traversal matched to query qi.
type foundPoint struct {
	qi int32
	p  geom.Point
}

// pointSink collects the points a multi-wave traversal (kNN sphere fetch,
// box fetch) finds, without per-query locks. Every host worker appends to a
// buffer of its own; a slot — one per worker for the L0 prefix, then one
// per group of each wave, in the wave's deterministic group enumeration —
// records which stretch of which buffer holds its finds, and gather
// regroups them by query in slot order, i.e. in exactly the order a serial
// traversal would have appended them: the same answer lists at any
// GOMAXPROCS, out of W buffers that persist across batches.
//
// A slot's finds must be appended by one worker with no other slot's in
// between (open panics otherwise). Waves guarantee it: a module handler or
// a pulled-group scan works through a group's entries back to back.
type pointSink struct {
	bufs  []sinkBuf
	segs  []sinkSeg    // per slot
	offs  []int        // gather's per-query offsets
	arena []geom.Point // gather's backing array, unless the caller owns it
}

// sinkBuf is one worker's append buffer, a cache line to itself because
// the workers append concurrently.
type sinkBuf struct {
	pts []foundPoint
	_   [64 - 24]byte
}

// sinkSeg locates a slot's finds: bufs[worker].pts[lo:hi].
type sinkSeg struct{ worker, lo, hi int }

// reset prepares the sink for a new traversal: a buffer per host worker
// and no slots. The buffers are empty, as every batch ends by emptying them
// (trim, which also decides what they keep).
func (ps *pointSink) reset() {
	if n := parallel.Workers(); len(ps.bufs) < n {
		ps.bufs = append(ps.bufs, make([]sinkBuf, n-len(ps.bufs))...)
	}
	ps.segs = ps.segs[:0]
}

// size returns how many finds the sink holds: what the current batch
// collected, since every batch ends by emptying it (trim).
func (ps *pointSink) size() int {
	n := 0
	for w := range ps.bufs {
		n += len(ps.bufs[w].pts)
	}
	return n
}

// trim empties the sink at the end of a batch, releasing the buffers
// parallel.Keep rejects for `used` elements of scratch. The workers' append
// buffers split one traversal's finds between them, so they are judged
// together.
func (ps *pointSink) trim(used int) {
	capacity := 0
	for w := range ps.bufs {
		capacity += cap(ps.bufs[w].pts)
	}
	release := parallel.Oversized(capacity, used)
	for w := range ps.bufs {
		if release {
			ps.bufs[w].pts = nil
		} else {
			ps.bufs[w].pts = ps.bufs[w].pts[:0]
		}
	}
	ps.segs = parallel.Keep(ps.segs, used)
	ps.offs = parallel.Keep(ps.offs, used)
	ps.arena = parallel.Keep(ps.arena, used)
}

// extend adds n empty slots and returns the index of the first. Like open
// and close it accepts a nil sink, which collects nothing.
func (ps *pointSink) extend(n int) int {
	if ps == nil {
		return 0
	}
	base := len(ps.segs)
	ps.segs = slices.Grow(ps.segs, n)[:base+n]
	clear(ps.segs[base:])
	return base
}

// open returns the buffer worker appends slot's finds to; close ends the
// stretch. A slot may be opened and closed any number of times.
func (ps *pointSink) open(slot, worker int) *[]foundPoint {
	if ps == nil {
		return nil
	}
	seg, buf := &ps.segs[slot], &ps.bufs[worker].pts
	switch {
	case seg.lo == seg.hi:
		seg.worker, seg.lo, seg.hi = worker, len(*buf), len(*buf)
	case seg.worker != worker || seg.hi != len(*buf):
		panic("core: pointSink slot filled from two places at once")
	}
	return buf
}

func (ps *pointSink) close(slot, worker int) {
	if ps != nil {
		ps.segs[slot].hi = len(ps.bufs[worker].pts)
	}
}

// gather returns, per query, the points found for it. With own the lists
// share one fresh backing array the caller may keep; otherwise they alias
// the sink's arena and die with the next gather.
func (ps *pointSink) gather(nq int, own bool) [][]geom.Point {
	out := make([][]geom.Point, nq)
	if cap(ps.offs) < nq+1 {
		ps.offs = make([]int, nq+1)
	}
	offs := ps.offs[:nq+1]
	clear(offs)
	for w := range ps.bufs {
		for _, f := range ps.bufs[w].pts {
			offs[f.qi+1]++
		}
	}
	for i := 0; i < nq; i++ {
		offs[i+1] += offs[i]
	}
	var arena []geom.Point
	if own {
		arena = make([]geom.Point, offs[nq])
	} else {
		ps.arena = parallel.Resize(ps.arena, offs[nq])
		arena = ps.arena
	}
	// Each list starts empty with exactly its final capacity, so the
	// appends below fill the arena in place.
	for qi := range out {
		out[qi] = arena[offs[qi]:offs[qi]:offs[qi+1]]
	}
	for _, seg := range ps.segs {
		for _, f := range ps.bufs[seg.worker].pts[seg.lo:seg.hi] {
			out[f.qi] = append(out[f.qi], f.p)
		}
	}
	return out
}
