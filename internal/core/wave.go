package core

import (
	"fmt"
	"slices"

	"pimzdtree/internal/geom"
	"pimzdtree/internal/parallel"
)

// waveScanFunc traverses one in-flight query within its chunk, appending
// chunk exits to *exits and returning the compute work and the bytes the
// traversal sends back to the CPU. cpuSide is true when the chunk was
// pulled and the traversal runs on the host (implementations typically
// rebate the PIM multiply premium there). A large wave's groups are scanned
// on several host workers at once, so implementations must be safe for
// concurrent invocation on different groups: worker (< parallel.Workers())
// is a stable scratch index (distinct concurrent invocations never share
// one) and gi is the group's rank in the wave's deterministic enumeration —
// pushed groups module-major first, then pulled groups in group order — so
// per-group result slots can be merged in a scheduling-independent order.
type waveScanFunc func(c *Chunk, e entry, cpuSide bool, worker, gi int, exits *[]entry) (work, outBytes int64)

// waveForkMin is the wave size (in-flight queries, pushed and pulled) from
// which the host scans the wave's groups on all its workers. One entry costs
// its scan 0.1-5 us of host time (a kNN or box chunk scan) and a fork costs
// a few us, so a thousand entries pay for it many times over, while the
// waves of a coalesced serving epoch (tens to a few hundred entries) stay a
// plain loop.
const waveForkMin = 1024

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
// A wave is three steps. Scan: the host runs every group's traversals,
// pushed groups as their modules would and pulled ones against master data,
// in one loop over the round's gi order (on all workers from waveForkMin
// entries), each group's exits and cost in a slot of its own.
// Charge: one round adds up the pushed groups' costs on their modules and
// ships the pulled groups' structures, and a CPU phase covers the pulled
// scans. Concatenate: the exit slots in gi order (active modules ascending,
// then pulled groups) are the next frontier — the serial schedule's, however
// many workers scanned.
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
		if prepWave != nil {
			prepWave(len(groups))
		}
		exits := r.exitSlots()
		if len(frontier) >= waveForkMin {
			parallel.ForDynamic(len(r.groups), func(worker, lo, hi int) {
				r.scanGroups(scan, exits, worker, lo, hi)
			})
		} else {
			r.scanGroups(scan, exits, 0, 0, len(r.groups))
		}
		t.chargeRound(msgBytes)

		next := r.nextFrontier(wave)
		for _, ex := range exits {
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

// scanGroups scans groups [lo, hi) of the routed wave as worker, each
// group's exits into its slot of exits and its cost into r.cost.
func (r *waveRouter) scanGroups(scan waveScanFunc, exits [][]entry, worker, lo, hi int) {
	for gi := lo; gi < hi; gi++ {
		g := r.groups[gi]
		var c groupCost
		for _, e := range g.entries {
			work, sent := scan(g.chunk, e, gi >= r.nPush, worker, gi, &exits[gi])
			c.work += work
			c.sent += sent
		}
		r.cost[gi] = c
	}
}

// hostForkMin is the batch size (queries) from which the per-query host
// loops around the waves — L0 prefixes, sphere derivation, the final kNN
// filter, the stage-A merge — run on the host's workers. A query costs
// such a loop 0.2-2 us, so a few hundred pay for the fork; the one- to
// sixteen-query batches of a serving epoch stay on the caller.
const hostForkMin = 256

// hostScratch is one host worker's private scratch, indexed by the worker
// ids parallel.ForDynamic / BlocksN hand out: the worker may be scanning a
// wave's groups or running a run of per-query host work, but never two of
// them at once.
type hostScratch struct {
	cand  candState  // stage-A chunk-scan candidate set
	arena []Neighbor // final-filter candidates of the query in hand
	front []entry    // L0-prefix chunk entries of the worker's query runs
	runs  []l0Run    // the runs front holds, in the order the worker took them
	work  int64      // host work of the worker's share of the current loop
}

// l0Run is one run of queries expandL0 handed a worker: the run starting at
// query lo put its chunk entries in front[start:end] of that worker's
// scratch.
type l0Run struct{ lo, worker, start, end int }

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
// as one CPU phase and returns the first wave's frontier. Batches from
// hostForkMin queries fork: workers claim runs of queries as they free up
// (parallel.ForDynamic), since one query's prefix can cost a hundred times
// another's, and each run's entries go to its worker's buffer. The runs
// then concatenate in query order, so the frontier is the one the serial
// loop builds, whatever GOMAXPROCS is.
func (t *Tree) expandL0(n int, expand func(worker int, qi int32, frontier *[]entry) int64) []entry {
	ws := t.hostWorkers()
	if n < hostForkMin {
		frontier, work := t.frontierBuf[:0], int64(0)
		for i := 0; i < n; i++ {
			work += expand(0, int32(i), &frontier)
		}
		t.frontierBuf = frontier
		t.sys.CPUPhase(work, 0, 0)
		return frontier
	}
	for w := range ws {
		ws[w].front, ws[w].runs, ws[w].work = ws[w].front[:0], ws[w].runs[:0], 0
	}
	parallel.ForDynamic(n, func(w, lo, hi int) {
		front, work := ws[w].front, int64(0)
		run := l0Run{lo: lo, worker: w, start: len(front)}
		for i := lo; i < hi; i++ {
			work += expand(w, int32(i), &front)
		}
		run.end = len(front)
		ws[w].front, ws[w].work, ws[w].runs = front, ws[w].work+work, append(ws[w].runs, run)
	})
	runs := t.l0Runs[:0]
	var cpuWork int64
	for w := range ws {
		runs = append(runs, ws[w].runs...)
		cpuWork += ws[w].work
	}
	slices.SortFunc(runs, func(a, b l0Run) int { return a.lo - b.lo })
	frontier := t.frontierBuf[:0]
	for _, r := range runs {
		frontier = append(frontier, ws[r.worker].front[r.start:r.end]...)
	}
	t.l0Runs, t.frontierBuf = runs, frontier
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
// between (open panics otherwise). Waves guarantee it: one worker scans a
// group's entries back to back.
type pointSink struct {
	bufs   []sinkBuf
	segs   []sinkSeg    // per slot
	blocks []int        // gather's per-worker slot ranges
	cnt    []int        // gather's per-(block, query) counts, then cursors
	arena  []geom.Point // gather's backing array, unless the caller owns it
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
	ps.blocks = parallel.Keep(ps.blocks, used)
	ps.cnt = parallel.Keep(ps.cnt, used)
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

// gatherForkMin is the find count from which gather forks. BenchmarkGather
// at -cpu 2 on a 2-vCPU Xeon: two blocks lost at 16 384 finds (about 290
// against 230 us), tied at 32 768 and won from 65 536 (0.78 against
// 0.86 ms; 1.3 against 2.2 ms at 131 072).
const gatherForkMin = 32768

// gather returns, per query, the points found for it. With own the lists
// share one fresh backing array the caller may keep; otherwise they alias
// the sink's arena and die with the next gather. From gatherForkMin finds
// it runs on every worker (gatherOn).
func (ps *pointSink) gather(nq int, own bool) [][]geom.Point {
	p := 1
	if ps.size() >= gatherForkMin {
		p = parallel.Workers()
	}
	return ps.gatherOn(p, nq, own)
}

// gatherOn is gather on p workers. The slots split into one contiguous
// block per worker, of about equal finds. Each block counts its finds per
// query; a scan over the counts, query-major then block-major, turns them
// into each block's write cursor per query; then every block writes its
// finds in slot order. A query's list is therefore in slot order, as if one
// worker had walked every slot.
func (ps *pointSink) gatherOn(p, nq int, own bool) [][]geom.Point {
	total := ps.size()
	p = max(1, min(p, len(ps.segs)))
	ps.blocks = sized(ps.blocks, p+1)
	for b, s, acc := 0, 0, 0; b < p; b++ {
		for ; s < len(ps.segs) && acc < b*total/p; s++ {
			acc += ps.segs[s].hi - ps.segs[s].lo
		}
		ps.blocks[b] = s
	}
	ps.blocks[p] = len(ps.segs)
	ps.cnt = sized(ps.cnt, p*nq)
	clear(ps.cnt)
	if p == 1 {
		ps.countBlock(0, nq)
	} else {
		parallel.BlocksN(p, p, func(b, _, _ int) { ps.countBlock(b, nq) })
	}

	out := make([][]geom.Point, nq)
	var arena []geom.Point
	if own {
		arena = make([]geom.Point, total)
	} else {
		ps.arena = parallel.Resize(ps.arena, total)
		arena = ps.arena
	}
	pos := 0
	for qi := range out {
		lo := pos
		for b := 0; b < p; b++ {
			c := &ps.cnt[b*nq+qi]
			*c, pos = pos, pos+*c
		}
		out[qi] = arena[lo:pos:pos]
	}
	if p == 1 {
		ps.fillBlock(0, nq, arena)
	} else {
		parallel.BlocksN(p, p, func(b, _, _ int) { ps.fillBlock(b, nq, arena) })
	}
	return out
}

// blockSlots returns block b's slots: ps.segs[blocks[b]:blocks[b+1]].
func (ps *pointSink) blockSlots(b int) []sinkSeg { return ps.segs[ps.blocks[b]:ps.blocks[b+1]] }

// countBlock counts block b's finds per query into its row of cnt.
func (ps *pointSink) countBlock(b, nq int) {
	row := ps.cnt[b*nq : (b+1)*nq]
	for _, seg := range ps.blockSlots(b) {
		for _, f := range ps.bufs[seg.worker].pts[seg.lo:seg.hi] {
			row[f.qi]++
		}
	}
}

// fillBlock writes block b's finds to arena at its cursors, in slot order.
func (ps *pointSink) fillBlock(b, nq int, arena []geom.Point) {
	row := ps.cnt[b*nq : (b+1)*nq]
	for _, seg := range ps.blockSlots(b) {
		for _, f := range ps.bufs[seg.worker].pts[seg.lo:seg.hi] {
			arena[row[f.qi]] = f.p
			row[f.qi]++
		}
	}
}
