package core

import (
	"sync/atomic"

	"pimzdtree/internal/geom"
	"pimzdtree/internal/parallel"
)

// boxMsgBytes is the modeled per-query message of a box wave (two corners
// plus an id).
const boxMsgBytes = 40

// BoxCount returns, for each query box, the exact number of stored points
// inside it (§4.4, BoxCount), in a fresh slice the caller owns. Execution
// follows SEARCH: level-by-level push-pull over the meta-nodes that
// intersect each box, with fully contained subtrees answered from the
// node's exact master size.
func (t *Tree) BoxCount(boxes []geom.Box) []int64 {
	counts := make([]int64, len(boxes))
	if t.root == nil {
		return counts
	}
	rec := t.sys.Recorder()
	rec.BeginOp("box-count")
	defer rec.EndOp()
	defer t.trimScratch()
	t.boxWave(boxes, counts, nil)
	return counts
}

// BoxFetch returns, for each query box, all stored points inside it, in
// the order the traversal meets them (L0 leaves, then wave by wave, modules
// ascending) — the same at any GOMAXPROCS.
func (t *Tree) BoxFetch(boxes []geom.Box) [][]geom.Point {
	rec := t.sys.Recorder()
	rec.BeginOp("box-fetch")
	defer rec.EndOp()
	defer t.trimScratch()
	t.found.reset()
	t.boxWave(boxes, nil, &t.found)
	return t.found.gather(len(boxes), true)
}

// boxWave drives the push-pull traversal shared by BoxCount and BoxFetch.
// In count mode (counts non-nil) every maximal contained subtree and every
// matched leaf point adds its size to its box's count, from several
// workers at once; in fetch mode sink gathers the in-box points themselves.
func (t *Tree) boxWave(boxes []geom.Box, counts []int64, sink *pointSink) {
	if t.root == nil || len(boxes) == 0 {
		return
	}
	// In fetch mode finds go to the sink, by host worker for the L0 prefix
	// and then by group of each wave; base is the stage's first slot. (A
	// nil sink hands out nil buffers, which is count mode to the scans.)
	bw := &t.boxW
	*bw = boxWalk{t: t, boxes: boxes, counts: counts, sink: sink, base: sink.extend(parallel.Workers())}
	frontier := t.expandL0(len(boxes), bw)
	// Push-pull waves over chunk entries, one meta-level per round.
	t.runPushPullWaves(frontier, boxMsgBytes, bw)
	*bw = boxWalk{}
}

// boxWalk is a box count's or fetch's waveWalk (see boxWave).
type boxWalk struct {
	t      *Tree
	boxes  []geom.Box
	counts []int64    // count mode
	sink   *pointSink // fetch mode
	base   int        // the current stage's first sink slot
}

func (bw *boxWalk) expandL0(worker int, qi int32, frontier *[]entry) int64 {
	work := bw.t.expandL0Box(qi, bw.t.root, bw.boxes[qi], bw.counts, bw.sink.open(bw.base+worker, worker), frontier)
	bw.sink.close(bw.base+worker, worker)
	return work
}

func (bw *boxWalk) prepWave(nGroups int) { bw.base = bw.sink.extend(nGroups) }

func (bw *boxWalk) scan(c *Chunk, e entry, _ bool, worker, gi int, exits *[]entry) (int64, int64) {
	work, outBytes := bw.t.boxChunkScan(c, e, bw.boxes[e.qi], bw.counts, bw.sink.open(bw.base+gi, worker), exits)
	bw.sink.close(bw.base+gi, worker)
	return work, outBytes
}

func (bw *boxWalk) afterWave(exits []entry) []entry { return exits }

// expandL0Box expands one query through the CPU-resident L0 region. found
// is nil in count mode (sizes add to counts[qi]) and collects the in-box
// points in fetch mode.
func (t *Tree) expandL0Box(qi int32, n *Node, box geom.Box, counts []int64, found *[]foundPoint, frontier *[]entry) int64 {
	fetchMode := found != nil
	var work int64
	var rec func(n *Node)
	rec = func(n *Node) {
		work += 4
		if !t.cell(n).Intersects(box) {
			return
		}
		// Non-L0 nodes are delegated to their chunk's module even when
		// fully contained: only the master holds the exact size (and the
		// leaf payloads), and exactness is required for box queries.
		if n.Layer != L0 {
			*frontier = append(*frontier, entry{qi: qi, node: n})
			return
		}
		if box.ContainsBox(t.cell(n)) && !fetchMode {
			atomic.AddInt64(&counts[qi], n.Size)
			return
		}
		if n.IsLeaf() {
			work += n.Size * int64(t.cfg.Dims)
			if fetchMode {
				forEachLeafBoxHit(n, box, func(i int) {
					*found = append(*found, foundPoint{qi: qi, p: n.point(i)})
				})
			} else if cnt := countLeafBox(n, box); cnt > 0 {
				// Per-point count callbacks fold into one add: the counts
				// are per-query sums, so aggregation is exact.
				atomic.AddInt64(&counts[qi], cnt)
			}
			return
		}
		rec(n.Left)
		rec(n.Right)
	}
	rec(n)
	return work
}

// boxChunkScan traverses one chunk for one box query, reporting contained
// subtrees (into counts[e.qi]; count mode), in-box leaf points (into
// *found; fetch mode, nil otherwise), and exits to child chunks. Several
// chunks may serve one box at once, so counts add atomically.
func (t *Tree) boxChunkScan(c *Chunk, e entry, box geom.Box, counts []int64, found *[]foundPoint, exits *[]entry) (work, outBytes int64) {
	fetch := found != nil
	var rec func(n *Node)
	rec = func(n *Node) {
		work += 4
		if !t.cell(n).Intersects(box) {
			return
		}
		if n.Chunk != c {
			*exits = append(*exits, entry{qi: e.qi, node: n})
			outBytes += resultMsgBytes
			return
		}
		if box.ContainsBox(t.cell(n)) {
			if !fetch {
				// The chunk master holds this node's exact size locally.
				atomic.AddInt64(&counts[e.qi], n.Size)
				outBytes += 8
				return
			}
			// Fetch of a contained subtree: stream the points held in
			// this chunk; portions in descendant chunks continue as
			// (still fully contained) exits.
			w, b := fetchSubtreeChunk(c, e.qi, n, found, exits)
			work += w
			outBytes += b
			return
		}
		if n.IsLeaf() {
			work += n.Size * int64(t.cfg.Dims)
			if fetch {
				forEachLeafBoxHit(n, box, func(i int) {
					*found = append(*found, foundPoint{qi: e.qi, p: n.point(i)})
					outBytes += pointBytes
				})
			} else if cnt := countLeafBox(n, box); cnt > 0 {
				// Leaf hits fold into one per-query add; like the scalar
				// loop, count-mode leaf points contribute no outBytes (the
				// per-module aggregation below prices the reply).
				atomic.AddInt64(&counts[e.qi], cnt)
			}
			return
		}
		rec(n.Left)
		rec(n.Right)
	}
	rec(e.node)
	if !fetch && outBytes > 0 {
		// Counts are aggregated per (query, module) before returning.
		outBytes = 8
	}
	return work, outBytes
}

// fetchSubtreeChunk streams every point of a fully contained subtree that
// lives inside chunk c, emitting exits for descendant chunks.
func fetchSubtreeChunk(c *Chunk, qi int32, n *Node, found *[]foundPoint, exits *[]entry) (work, outBytes int64) {
	if n.Chunk != c {
		*exits = append(*exits, entry{qi: qi, node: n})
		return 1, resultMsgBytes
	}
	if n.IsLeaf() {
		for i := range int(n.Size) {
			*found = append(*found, foundPoint{qi: qi, p: n.point(i)})
		}
		return n.Size, n.Size * pointBytes
	}
	wl, bl := fetchSubtreeChunk(c, qi, n.Left, found, exits)
	wr, br := fetchSubtreeChunk(c, qi, n.Right, found, exits)
	return wl + wr + 1, bl + br
}
