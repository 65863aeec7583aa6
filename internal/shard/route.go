package shard

import (
	"math"
	"math/bits"

	"pimzdtree/internal/core"
	"pimzdtree/internal/geom"
	"pimzdtree/internal/morton"
	"pimzdtree/internal/parallel"
)

// Batch routing: one counting pass splits a batch into per-shard
// segments. Point i's destination is the shard whose key range contains
// its Morton key; the scatter is stable, so each shard sees its
// sub-batch in original batch order and the whole pass is deterministic
// regardless of how many workers computed the keys.

const routePointBytes = 16 // key + packed coordinates, mirrors core's pointBytes

// route partitions pts into shard segments. Returns the scattered points
// (segment s at [offs[s], offs[s+1])) and each scattered point's original
// batch position. The returned slices alias Index scratch — valid until
// the next route call.
func (x *Index) route(pts []geom.Point) (flat []geom.Point, idx []int32, offs []int) {
	s := len(x.cuts) + 1
	n := len(pts)
	if n > math.MaxInt32 {
		panic("shard: batch exceeds the 32-bit index range of the router")
	}
	x.ids = parallel.Resize(x.ids, n)
	x.scatterPts = parallel.Resize(x.scatterPts, n)
	x.scatterIdx = parallel.Resize(x.scatterIdx, n)
	if cap(x.counts) < s+1 {
		x.counts = make([]int, s+1)
		x.offs = make([]int, s+1)
	}
	ids := x.ids
	parallel.For(n, func(i int) {
		ids[i] = int32(findShard(x.cuts, morton.EncodePoint(pts[i])))
	})
	counts := x.counts[:s]
	for i := range counts {
		counts[i] = 0
	}
	for _, id := range ids {
		counts[id]++
	}
	offs = x.offs[:s+1]
	pos := 0
	for i, c := range counts {
		offs[i] = pos
		pos += c
	}
	offs[s] = pos
	flat, idx = x.scatterPts, x.scatterIdx
	next := counts // reuse as running cursors
	copy(next, offs[:s])
	for i, id := range ids {
		at := next[id]
		next[id]++
		flat[at] = pts[i]
		idx[at] = int32(i)
	}
	return flat, idx, offs
}

// chargeRoute prices the routing pass on the host: one z-encode plus a
// log2(S) cut search per point, and one streaming scatter pass over the
// batch (read + write).
func (x *Index) chargeRoute(n int) {
	if x.router == nil || n == 0 {
		return
	}
	work := int64(n) * (morton.CostFast(x.cfg.Dims) + int64(bits.Len(uint(len(x.sh)-1))))
	x.router.CPUPhase(work, int64(n)*2*routePointBytes, 0)
}

// forEach runs call(s) for every shard with work (n(s) > 0 items), each
// wrapped in fan-out capture, one shard after another on the calling
// goroutine. It is the one place the router fans out to shards: shards own
// disjoint state, so the calls could run concurrently; ROADMAP has why
// they do not yet.
func (x *Index) forEach(n func(s int) int, call func(s int)) {
	for s := range x.sh {
		if k := n(s); k > 0 {
			x.fanShard(s, k, func() { call(s) })
		}
	}
}

// segLen sizes route's segments for forEach.
func segLen(offs []int) func(s int) int {
	return func(s int) int { return offs[s+1] - offs[s] }
}

// mergeWindows drains every shard recorder into the parent recorder in
// shard order — the deterministic merge that keeps exports byte-identical
// at any GOMAXPROCS. A shard without a local recorder (no router: its tree
// records into the parent directly) drains nothing.
func (x *Index) mergeWindows() {
	if !x.cfg.Obs.Enabled() {
		return
	}
	for _, sh := range x.sh {
		x.cfg.Obs.MergeWindow(sh.rec.TakeWindow())
	}
}

// SearchBatch answers point membership for the batch across all shards.
func (x *Index) SearchBatch(pts []geom.Point) []bool {
	x.mu.Lock()
	defer x.mu.Unlock()
	out := make([]bool, len(pts))
	if len(pts) == 0 {
		return out
	}
	rec := x.routerRec()
	rec.BeginOp("search")
	x.fanBegin("search", len(pts))
	flat, idx, offs := x.route(pts)
	x.chargeRoute(len(pts))
	results := make([][]bool, len(x.sh))
	x.forEach(segLen(offs), func(s int) {
		results[s] = x.sh[s].tree.ContainsBatch(flat[offs[s]:offs[s+1]])
	})
	x.mergeWindows()
	rec.EndOp()
	for s, r := range results {
		for j, v := range r {
			qi := idx[offs[s]+j]
			out[qi] = v
			x.fanQuery(int(qi))
		}
	}
	x.fanFinish()
	return out
}

// InsertBatch routes the batch to its shards and applies the per-shard
// inserts (see update).
func (x *Index) InsertBatch(pts []geom.Point) { x.update("insert", pts, (*core.Tree).Insert) }

// DeleteBatch routes the batch to its shards and applies the per-shard
// deletes (see update).
func (x *Index) DeleteBatch(pts []geom.Point) { x.update("delete", pts, (*core.Tree).Delete) }

// update routes an update batch to its shards, applies each shard's
// segment, runs the epoch-boundary rebalance check, and then publishes the
// new epoch — exactly one per call, empty batches included.
func (x *Index) update(op string, pts []geom.Point, apply func(t *core.Tree, seg []geom.Point)) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if len(pts) > 0 {
		rec := x.routerRec()
		rec.BeginOp(op)
		x.fanBegin(op, len(pts))
		flat, _, offs := x.route(pts)
		x.chargeRoute(len(pts))
		x.forEach(segLen(offs), func(s int) {
			apply(x.sh[s].tree, flat[offs[s]:offs[s+1]])
		})
		x.mergeWindows()
		rec.EndOp()
		x.fanUpdateDone()
	}
	x.maybeRebalance()
	x.epoch.Add(1)
}

// BoxCountBatch counts stored points per box. Each box fans out only to
// shards whose key range can intersect it (some aligned block of the
// range overlaps the box) — the minimal shard cover, since the blocks
// tile exactly the shard's keys — and the per-shard counts sum (a point
// lives in exactly one shard).
func (x *Index) BoxCountBatch(boxes []geom.Box) []int64 {
	x.mu.Lock()
	defer x.mu.Unlock()
	out := make([]int64, len(boxes))
	if len(boxes) == 0 {
		return out
	}
	rec := x.routerRec()
	rec.BeginOp("box-count")
	x.fanBegin("box", len(boxes))
	subBoxes := make([][]geom.Box, len(x.sh))
	subIdx := make([][]int32, len(x.sh))
	for i, b := range boxes {
		for s, sh := range x.sh {
			if sh.tree.Size() == 0 {
				continue
			}
			x.fanTest(1)
			if sh.intersects(b) {
				subBoxes[s] = append(subBoxes[s], b)
				subIdx[s] = append(subIdx[s], int32(i))
				x.fanQuery(i)
			} else {
				x.fanPrune(1)
			}
		}
	}
	if x.router != nil {
		// Cover computation: block-box tests per query box per shard.
		x.router.CPUPhase(int64(len(boxes))*int64(len(x.sh))*4, 0, 0)
	}
	counts := make([][]int64, len(x.sh))
	x.forEach(func(s int) int { return len(subBoxes[s]) }, func(s int) {
		counts[s] = x.sh[s].tree.BoxCount(subBoxes[s])
	})
	x.mergeWindows()
	rec.EndOp()
	x.fanFinish()
	for s, cs := range counts {
		for j, c := range cs {
			out[subIdx[s][j]] += c
		}
	}
	return out
}
