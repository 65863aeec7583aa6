package core

import (
	"sync"
	"sync/atomic"

	"pimzdtree/internal/geom"
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
	t.boxWave(boxes, func(qi int32, size int64) {
		atomic.AddInt64(&counts[qi], size)
	}, nil)
	return counts
}

// BoxFetch returns, for each query box, all stored points inside it.
func (t *Tree) BoxFetch(boxes []geom.Box) [][]geom.Point {
	rec := t.sys.Recorder()
	rec.BeginOp("box-fetch")
	defer rec.EndOp()
	out := make([][]geom.Point, len(boxes))
	collected := make([]fetchSink, len(boxes))
	t.boxWave(boxes, nil, collected)
	for i := range out {
		out[i] = collected[i].pts
	}
	return out
}

// fetchSink gathers fetched points for one query; each query's slice is
// appended under its own lock because several chunks within one wave may
// serve the same query concurrently.
type fetchSink struct {
	mu  sync.Mutex
	pts []geom.Point
}

// boxWave drives the push-pull traversal shared by BoxCount and BoxFetch.
// onSize (count mode) receives the exact size of every maximal contained
// subtree and every matched leaf point; collected (fetch mode) gathers the
// in-box points themselves.
func (t *Tree) boxWave(boxes []geom.Box, onSize func(int32, int64), collected []fetchSink) {
	if t.root == nil || len(boxes) == 0 {
		return
	}
	fetch := collected != nil

	add := func(qi int32, size int64) {
		if !fetch {
			onSize(qi, size)
		}
	}
	addPoint := func(qi int32, p geom.Point) {
		if fetch {
			collected[qi].mu.Lock()
			collected[qi].pts = append(collected[qi].pts, p)
			collected[qi].mu.Unlock()
		} else {
			onSize(qi, 1)
		}
	}

	// CPU phase: expand the L0 region of each query.
	frontier := t.frontierBuf[:0]
	var cpuWork int64
	for i := range boxes {
		cpuWork += t.expandL0Box(int32(i), t.root, boxes[i], fetch, add, addPoint, &frontier)
	}
	t.frontierBuf = frontier
	t.sys.CPUPhase(cpuWork, 0, 0)

	// Push-pull waves over chunk entries, one meta-level per round.
	scan := func(c *Chunk, e entry, cpuSide bool, worker, gi int, exits *[]entry) (int64, int64) {
		return t.boxChunkScan(c, e, boxes[e.qi], fetch, add, addPoint, exits)
	}
	t.runPushPullWaves(frontier, boxMsgBytes, scan, nil, nil)
}

// expandL0Box expands one query through the CPU-resident L0 region.
func (t *Tree) expandL0Box(qi int32, n *Node, box geom.Box, fetchMode bool, add func(int32, int64), addPoint func(int32, geom.Point), frontier *[]entry) int64 {
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
			work += int64(len(n.Pts)) * int64(t.cfg.Dims)
			if fetchMode {
				forEachLeafBoxHit(n, box, func(i int) {
					addPoint(qi, n.Pts[i])
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
// subtrees, in-box leaf points, and exits to child chunks.
func (t *Tree) boxChunkScan(c *Chunk, e entry, box geom.Box, fetch bool, add func(int32, int64), addPoint func(int32, geom.Point), exits *[]entry) (work, outBytes int64) {
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
			w, b := t.fetchSubtreeChunk(c, e.qi, n, addPoint, exits)
			work += w
			outBytes += b
			return
		}
		if n.IsLeaf() {
			work += int64(len(n.Pts)) * int64(t.cfg.Dims)
			if fetch {
				forEachLeafBoxHit(n, box, func(i int) {
					addPoint(e.qi, n.Pts[i])
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
func (t *Tree) fetchSubtreeChunk(c *Chunk, qi int32, n *Node, addPoint func(int32, geom.Point), exits *[]entry) (work, outBytes int64) {
	if n.Chunk != c {
		*exits = append(*exits, entry{qi: qi, node: n})
		return 1, resultMsgBytes
	}
	if n.IsLeaf() {
		for _, p := range n.Pts {
			addPoint(qi, p)
		}
		return int64(len(n.Pts)), int64(len(n.Pts)) * pointBytes
	}
	wl, bl := t.fetchSubtreeChunk(c, qi, n.Left, addPoint, exits)
	wr, br := t.fetchSubtreeChunk(c, qi, n.Right, addPoint, exits)
	return wl + wr + 1, bl + br
}
