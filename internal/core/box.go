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
// inside it (§4.4, BoxCount). Execution follows SEARCH: level-by-level
// push-pull over the meta-nodes that intersect each box, with fully
// contained subtrees answered from the node's exact master size.
func (t *Tree) BoxCount(boxes []geom.Box) []int64 {
	counts := make([]int64, len(boxes))
	if t.root == nil {
		return counts
	}
	rec := t.sys.Recorder()
	rec.BeginOp("box-count")
	defer rec.EndOp()
	defer t.trimScratch()
	t.boxWave(boxes, func(qi int32, size int64) {
		atomic.AddInt64(&counts[qi], size)
	}, nil)
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
// onSize (count mode) receives the exact size of every maximal contained
// subtree and every matched leaf point, from several workers at once; sink
// (fetch mode) gathers the in-box points themselves.
func (t *Tree) boxWave(boxes []geom.Box, onSize func(int32, int64), sink *pointSink) {
	if t.root == nil || len(boxes) == 0 {
		return
	}
	// In fetch mode finds go to the sink, by host worker for the L0 prefix
	// and then by group of each wave; base is the stage's first slot. (A
	// nil sink hands out nil buffers, which is count mode to the scans.)
	base := sink.extend(parallel.Workers())

	// CPU phase: expand the L0 region of each query.
	frontier := t.expandL0(len(boxes), func(worker int, qi int32, frontier *[]entry) int64 {
		work := t.expandL0Box(qi, t.root, boxes[qi], onSize, sink.open(base+worker, worker), frontier)
		sink.close(base+worker, worker)
		return work
	})

	// Push-pull waves over chunk entries, one meta-level per round.
	prep := func(nGroups int) { base = sink.extend(nGroups) }
	scan := func(c *Chunk, e entry, cpuSide bool, worker, gi int, exits *[]entry) (int64, int64) {
		work, outBytes := t.boxChunkScan(c, e, boxes[e.qi], onSize, sink.open(base+gi, worker), exits)
		sink.close(base+gi, worker)
		return work, outBytes
	}
	t.runPushPullWaves(frontier, boxMsgBytes, scan, prep, nil)
}

// expandL0Box expands one query through the CPU-resident L0 region. found
// is nil in count mode (sizes go to add) and collects the in-box points in
// fetch mode.
func (t *Tree) expandL0Box(qi int32, n *Node, box geom.Box, add func(int32, int64), found *[]foundPoint, frontier *[]entry) int64 {
	fetchMode := found != nil
	var work int64
	var rec func(n *Node)
	rec = func(n *Node) {
		work += 4
		if !n.Box.Intersects(box) {
			return
		}
		// Non-L0 nodes are delegated to their chunk's module even when
		// fully contained: only the master holds the exact size (and the
		// leaf payloads), and exactness is required for box queries.
		if n.Layer != L0 {
			*frontier = append(*frontier, entry{qi: qi, node: n})
			return
		}
		if box.ContainsBox(n.Box) && !fetchMode {
			add(qi, n.Size)
			return
		}
		if n.IsLeaf() {
			work += int64(len(n.Keys)) * int64(t.cfg.Dims)
			if fetchMode {
				forEachLeafBoxHit(n, box, func(i int) {
					*found = append(*found, foundPoint{qi: qi, p: n.point(i)})
				})
			} else if cnt := countLeafBox(n, box); cnt > 0 {
				// Per-point count callbacks fold into one add: the counts
				// are per-query sums, so aggregation is exact.
				add(qi, cnt)
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
// subtrees (to add; count mode), in-box leaf points (into *found; fetch
// mode, nil otherwise), and exits to child chunks.
func (t *Tree) boxChunkScan(c *Chunk, e entry, box geom.Box, add func(int32, int64), found *[]foundPoint, exits *[]entry) (work, outBytes int64) {
	fetch := found != nil
	var rec func(n *Node)
	rec = func(n *Node) {
		work += 4
		if !n.Box.Intersects(box) {
			return
		}
		if n.Chunk != c {
			*exits = append(*exits, entry{qi: e.qi, node: n})
			outBytes += resultMsgBytes
			return
		}
		if box.ContainsBox(n.Box) {
			if !fetch {
				// The chunk master holds this node's exact size locally.
				add(e.qi, n.Size)
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
			work += int64(len(n.Keys)) * int64(t.cfg.Dims)
			if fetch {
				forEachLeafBoxHit(n, box, func(i int) {
					*found = append(*found, foundPoint{qi: e.qi, p: n.point(i)})
					outBytes += pointBytes
				})
			} else if cnt := countLeafBox(n, box); cnt > 0 {
				// Leaf hits fold into one per-query add; like the scalar
				// loop, count-mode leaf points contribute no outBytes (the
				// per-module aggregation below prices the reply).
				add(e.qi, cnt)
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
		for i := range n.Keys {
			*found = append(*found, foundPoint{qi: qi, p: n.point(i)})
		}
		return int64(len(n.Keys)), int64(len(n.Keys)) * pointBytes
	}
	wl, bl := fetchSubtreeChunk(c, qi, n.Left, found, exits)
	wr, br := fetchSubtreeChunk(c, qi, n.Right, found, exits)
	return wl + wr + 1, bl + br
}
