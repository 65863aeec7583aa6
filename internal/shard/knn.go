package shard

import (
	"math"

	"pimzdtree/internal/core"
	"pimzdtree/internal/geom"
)

// Cross-shard kNN (two phases, Alg.-3-style candidate-then-refine lifted
// to shard granularity):
//
//  1. Candidate phase: every query runs kNN on its *home* shard (the one
//     owning its Morton key) — the shard most likely to hold the true
//     neighbors. With k candidates in hand the k-th distance bounds the
//     answer.
//  2. Fan-out phase: the query is re-asked only on shards whose key
//     range lies within the current bound (minimum distance to the
//     shard's aligned-block tiling <= bound, ties included, under the
//     same squared-l2 metric kNN reports). Shards the bound excludes
//     cannot contribute a top-k neighbor because every point they store
//     lies inside one of their blocks.
//
// The final per-query merge sorts the union of per-shard top-k lists
// under core.NeighborLess — the identical (distance, then coordinates)
// total order a single tree sorts under — and truncates to k, so the
// sharded answer matches the single-tree answer exactly, ties included.
// Points live in exactly one shard, so the union is duplicate-free.

const knnMsgBytes = 24 // modeled per-candidate message, mirrors core's kNN wave

// KNNBatch answers exact kNN (squared l2) for the batch across all
// shards. k is clamped to the total stored point count; an empty index
// yields empty neighbor lists.
func (x *Index) KNNBatch(queries []geom.Point, k int) [][]core.Neighbor {
	x.mu.Lock()
	defer x.mu.Unlock()
	out := make([][]core.Neighbor, len(queries))
	total := x.sizeLocked()
	if len(queries) == 0 || k <= 0 || total == 0 {
		return out
	}
	if k > total {
		k = total
	}
	rec := x.routerRec()
	rec.BeginOp("knn")
	x.fanBegin("knn", len(queries))

	// Phase 1: home-shard candidates.
	flat, idx, offs := x.route(queries)
	x.chargeRoute(len(queries))
	homeRes := make([][][]core.Neighbor, len(x.sh))
	x.forEach(segLen(offs), func(s int) {
		homeRes[s] = x.sh[s].tree.KNN(flat[offs[s]:offs[s+1]], k)
	})
	x.mergeWindows()

	// Per-query candidate lists and pruning bounds, in batch order.
	cands := make([][]core.Neighbor, len(queries))
	home := make([]int32, len(queries))
	bound := make([]uint64, len(queries))
	for s, rs := range homeRes {
		for j, r := range rs {
			qi := idx[offs[s]+j]
			// A query has one home shard, so its candidates start as that
			// shard's list itself; core caps every list at its length, so
			// phase 2's appends copy instead of writing into the next one.
			cands[qi] = r
			home[qi] = int32(s)
			x.fanQuery(int(qi))
			if len(r) >= k {
				bound[qi] = r[k-1].Dist
			} else {
				bound[qi] = math.MaxUint64
			}
		}
	}

	// Phase 2: fan out to the shards the bound cannot exclude, pruning
	// against each shard's tight aligned-block tiling (withinDist).
	subQ := make([][]geom.Point, len(x.sh))
	subIdx := make([][]int32, len(x.sh))
	subCap := make([][]uint64, len(x.sh))
	boxTests := 0
	for i, q := range queries {
		for s, sh := range x.sh {
			if int32(s) == home[i] || sh.tree.Size() == 0 {
				continue
			}
			hit, checked := sh.withinDist(q, bound[i])
			boxTests += checked
			if hit {
				subQ[s] = append(subQ[s], q)
				subIdx[s] = append(subIdx[s], int32(i))
				subCap[s] = append(subCap[s], bound[i])
				x.fanQuery(i)
			} else {
				x.fanPrune(1)
			}
		}
	}
	if x.router != nil {
		// Bound derivation + the block-box distance tests on the host.
		x.router.CPUPhase(int64(boxTests)*int64(x.cfg.Dims)*3, 0, 0)
	}
	x.fanTest(boxTests)
	farRes := make([][][]core.Neighbor, len(x.sh))
	x.forEach(func(s int) int { return len(subQ[s]) }, func(s int) {
		farRes[s] = x.sh[s].tree.KNNWithin(subQ[s], k, subCap[s])
	})
	x.mergeWindows()
	for s, rs := range farRes {
		for j, r := range rs {
			cands[subIdx[s][j]] = append(cands[subIdx[s][j]], r...)
		}
	}

	// Cross-shard top-k merge under the single-tree total order.
	merged := 0
	for i := range cands {
		c := cands[i]
		merged += len(c)
		sortNeighbors(c)
		if len(c) > k {
			c = c[:k]
		}
		out[i] = c
	}
	if x.router != nil {
		// Host-side merge of the per-shard candidate lists.
		x.router.CPUPhase(int64(merged)*int64(x.cfg.Dims+4), int64(merged)*knnMsgBytes, 0)
	}
	rec.EndOp()
	x.fanFinish()
	return out
}

// sortNeighbors sorts candidates in place under core.NeighborLess via a
// simple binary-insertion sort — candidate lists are at most S*k long.
func sortNeighbors(ns []core.Neighbor) {
	for i := 1; i < len(ns); i++ {
		for j := i; j > 0 && core.NeighborLess(ns[j], ns[j-1]); j-- {
			ns[j], ns[j-1] = ns[j-1], ns[j]
		}
	}
}
