package core

import "pimzdtree/internal/geom"

// Fused lane-wise leaf kernels. Every leaf scan in the query paths — kNN
// candidate scoring, sphere fetches, and box filters — runs through these
// routines, which stream the leaf's dim-major coordinate lanes (its only
// coordinate store, Node.lanes) in fixed-size blocks and materialise a
// geom.Point only for a point they hand out. Distance computation and the
// bound/box test are fused into a single pass per block with all slice
// bounds checks hoisted; inner loops are branch-free (sign-mask absolute
// values, underflow-mask interval tests) so the host pipelines them.
//
// The kernels change host wall-clock only: callers charge exactly the
// same modeled per-point work and per-hit bytes as the scalar loops they
// replaced, and visit points in the same index order.

// leafBlock is the kernel block width. Leaves normally hold at most
// LeafCap points, but all-duplicate leaves may exceed it, so the kernels
// never assume a leaf fits one block.
const leafBlock = 64

// leafCoarseDists fills dist[:m] with the metric distances from q to
// points off..off+m of leaf n, streaming one coordinate lane at a time.
func leafCoarseDists(data []uint32, total, off, m int, q geom.Point, metric geom.Metric, dist *[leafBlock]uint64) {
	ds := dist[:m]
	for i := range ds {
		ds[i] = 0
	}
	switch metric {
	case geom.L1:
		for d := 0; d < int(q.Dims); d++ {
			qv := int64(q.Coords[d])
			lane := data[d*total+off:]
			lane = lane[:m]
			for i, v := range lane {
				diff := int64(v) - qv
				sign := diff >> 63
				ds[i] += uint64((diff ^ sign) - sign)
			}
		}
	case geom.L2:
		for d := 0; d < int(q.Dims); d++ {
			qv := int64(q.Coords[d])
			lane := data[d*total+off:]
			lane = lane[:m]
			for i, v := range lane {
				diff := int64(v) - qv
				ds[i] += uint64(diff * diff)
			}
		}
	default: // LInf
		for d := 0; d < int(q.Dims); d++ {
			qv := int64(q.Coords[d])
			lane := data[d*total+off:]
			lane = lane[:m]
			for i, v := range lane {
				diff := int64(v) - qv
				sign := diff >> 63
				if a := uint64((diff ^ sign) - sign); a > ds[i] {
					ds[i] = a
				}
			}
		}
	}
}

// scanLeafKNN scores every point of leaf n under the coarse metric and
// feeds them to cs in index order — semantically identical to the scalar
// per-point coarse.Dist + add loop it replaces. Only points inside the
// current bound (the ones add would keep) are materialised.
func scanLeafKNN(n *Node, q geom.Point, coarse geom.Metric, cs *candState, k int) {
	var dist [leafBlock]uint64
	total := int(n.Size)
	for off := 0; off < total; off += leafBlock {
		m := min(total-off, leafBlock)
		leafCoarseDists(n.lanes, total, off, m, q, coarse, &dist)
		for i := 0; i < m; i++ {
			if dist[i] < cs.bound {
				cs.add(n.point(off+i), dist[i], k)
			}
		}
	}
}

// scanLeafSphere emits (in index order) every point of leaf n whose
// coarse distance to q is within bound, returning the hit count.
func scanLeafSphere(n *Node, q geom.Point, coarse geom.Metric, bound uint64, emit func(geom.Point)) int64 {
	var dist [leafBlock]uint64
	var hits int64
	total := int(n.Size)
	for off := 0; off < total; off += leafBlock {
		m := min(total-off, leafBlock)
		leafCoarseDists(n.lanes, total, off, m, q, coarse, &dist)
		for i := 0; i < m; i++ {
			if dist[i] <= bound {
				emit(n.point(off + i))
				hits++
			}
		}
	}
	return hits
}

// leafBoxFlags sets flags[:m] to 1 for points off..off+m of leaf n that
// lie inside box, 0 otherwise. Per dimension, v in [lo,hi] iff the
// uint32-wrapped v-lo does not exceed hi-lo, tested branch-free via the
// underflow sign of the uint64 subtraction.
func leafBoxFlags(data []uint32, total, off, m int, box geom.Box, flags *[leafBlock]uint64) {
	fs := flags[:m]
	for i := range fs {
		fs[i] = 1
	}
	for d := 0; d < int(box.Lo.Dims); d++ {
		lo := box.Lo.Coords[d]
		span := uint64(box.Hi.Coords[d] - lo)
		lane := data[d*total+off:]
		lane = lane[:m]
		for i, v := range lane {
			fs[i] &= 1 - ((span - uint64(v-lo)) >> 63)
		}
	}
}

// countLeafBox returns how many of leaf n's points lie inside box.
func countLeafBox(n *Node, box geom.Box) int64 {
	var flags [leafBlock]uint64
	var cnt uint64
	total := int(n.Size)
	for off := 0; off < total; off += leafBlock {
		m := min(total-off, leafBlock)
		leafBoxFlags(n.lanes, total, off, m, box, &flags)
		for _, f := range flags[:m] {
			cnt += f
		}
	}
	return int64(cnt)
}

// forEachLeafBoxHit calls emit(i) for every index i of a point of leaf n
// inside box, in increasing index order.
func forEachLeafBoxHit(n *Node, box geom.Box, emit func(int)) {
	var flags [leafBlock]uint64
	total := int(n.Size)
	for off := 0; off < total; off += leafBlock {
		m := min(total-off, leafBlock)
		leafBoxFlags(n.lanes, total, off, m, box, &flags)
		for i := 0; i < m; i++ {
			if flags[i] != 0 {
				emit(off + i)
			}
		}
	}
}
