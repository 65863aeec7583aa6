package main

import (
	"sync/atomic"
	"time"

	"pimzdtree/internal/core"
	"pimzdtree/internal/geom"
	"pimzdtree/internal/obs"
	"pimzdtree/internal/pim"
	"pimzdtree/internal/serve"
)

// opKind indexes the five batch operations.
type opKind int

const (
	opSearch opKind = iota
	opKNN
	opBox
	opInsert
	opDelete
	nOps
)

var opNames = [nOps]string{"search", "knn", "box", "insert", "delete"}

// opAgg sums what one operation kind cost over a traced region.
type opAgg struct {
	calls, ops int64
	wallNs     int64
	modeled    pim.Metrics
	// Sharded backends: the shards' own walls (summed, and the slowest per
	// call) and the queries they served, from the fan-out report.
	shardWallNs, slowestNs, shardOps int64
}

// layerRec times the batch calls into the index from outside: one span and
// one modeled-metrics delta per call. It is used only in traced regions; a
// nil *layerRec runs the call bare.
type layerRec struct {
	tr      *tracer
	prefix  string // "core" for a tree, "shard" for a sharded index
	modeled func() pim.Metrics
	fanout  func() *obs.FanoutReport // nil unless the backend is sharded
	agg     [nOps]opAgg
	// Fan-out totals over query batches.
	fanQueries, fanTouched, fanPruned int64
	lastFan                           *obs.FanoutReport
}

// call runs f as one batch of kind k under a span.
func (l *layerRec) call(k opKind, ops int, parent int32, rid int64, f func()) {
	if l == nil {
		f()
		return
	}
	id := l.tr.open(l.prefix+"."+opNames[k], parent, rid, 1)
	m0 := l.modeled()
	t0 := time.Now()
	f()
	wall := time.Since(t0)
	d := l.modeled().Sub(m0)
	l.tr.close(id, ops)

	a := &l.agg[k]
	a.calls++
	a.ops += int64(ops)
	a.wallNs += int64(wall)
	a.modeled = addMetrics(a.modeled, d)
	if l.fanout == nil {
		return
	}
	rep := l.fanout()
	l.lastFan = rep
	if rep == nil {
		return
	}
	start := l.tr.now() - int64(wall)
	var slowest int64
	for _, s := range rep.Shards {
		ns := int64(s.WallSeconds * 1e9)
		a.shardWallNs += ns
		a.shardOps += int64(s.Queries)
		slowest = max(slowest, ns)
		// The report gives each shard's wall but not its start; the
		// shards run fork-join, so the batch start is the best estimate.
		l.tr.add("core."+opNames[k], start, start+ns, id, rid, s.Queries, int32(2+s.Shard))
	}
	a.slowestNs += slowest
	for _, q := range rep.PerQuery {
		l.fanTouched += int64(q)
	}
	l.fanQueries += int64(len(rep.PerQuery))
	l.fanPruned += int64(rep.Pruned)
}

func addMetrics(a, b pim.Metrics) pim.Metrics {
	a.Rounds += b.Rounds
	a.BytesToPIM += b.BytesToPIM
	a.BytesFromPIM += b.BytesFromPIM
	a.PIMCycleSum += b.PIMCycleSum
	a.PIMCycleTotal += b.PIMCycleTotal
	a.CPUWork += b.CPUWork
	a.CPUTraffic += b.CPUTraffic
	a.CPUChase += b.CPUChase
	a.CPUSeconds += b.CPUSeconds
	a.PIMSeconds += b.PIMSeconds
	a.CommSeconds += b.CommSeconds
	return a
}

// metrics writes the per-operation layer rows.
func (l *layerRec) metrics(out map[string]float64) {
	var wallNs, rounds, calls int64
	for k := opKind(0); k < nOps; k++ {
		a := l.agg[k]
		if a.calls == 0 {
			continue
		}
		n := opNames[k]
		out["pim.rounds_per_batch."+n] = float64(a.modeled.Rounds) / float64(a.calls)
		out["pim.chan_bytes_per_op."+n] = float64(a.modeled.ChannelBytes()) / float64(a.ops)
		out["pim.modeled_us_per_op."+n] = a.modeled.TotalSeconds() * 1e6 / float64(a.ops)
		if l.prefix == "core" {
			out["core."+n+"_us_per_op"] = float64(a.wallNs) / 1e3 / float64(a.ops)
		} else {
			out["shard.batch_ms."+n] = float64(a.wallNs) / 1e6 / float64(a.calls)
			if a.shardOps > 0 {
				out["core."+n+"_us_per_op"] = float64(a.shardWallNs) / 1e3 / float64(a.shardOps)
			}
		}
		wallNs += a.wallNs
		rounds += a.modeled.Rounds
		calls += a.calls
	}
	if rounds > 0 {
		out["pim.host_us_per_round"] = float64(wallNs) / 1e3 / float64(rounds)
	}
	if l.prefix == "shard" && calls > 0 {
		var router int64
		for _, a := range l.agg {
			router += a.wallNs - a.slowestNs
		}
		out["shard.router_us_per_batch"] = float64(router) / 1e3 / float64(calls)
		if l.fanQueries > 0 {
			out["shard.fanout_mean"] = float64(l.fanTouched) / float64(l.fanQueries)
		}
		if probes := l.fanTouched + l.fanPruned; probes > 0 {
			out["shard.pruned_ratio"] = float64(l.fanPruned) / float64(probes)
		}
	}
}

// batchOpsMean writes how many ops the engine's coalesced batches carried.
func (l *layerRec) batchOpsMean(out map[string]float64) {
	var calls, ops int64
	for _, a := range l.agg {
		calls += a.calls
		ops += a.ops
	}
	if calls > 0 {
		out["serve.batch_ops_mean"] = float64(ops) / float64(calls)
	}
}

// tracedBackend is the serve.Backend decorator the traced serve runs put in
// front of the index. With no recorder installed it forwards untouched.
type tracedBackend struct {
	inner serve.Backend
	rec   atomic.Pointer[layerRec]
}

func (b *tracedBackend) Dims() uint8   { return b.inner.Dims() }
func (b *tracedBackend) Epoch() uint64 { return b.inner.Epoch() }

func (b *tracedBackend) SearchBatch(pts []geom.Point) (found []bool) {
	b.rec.Load().call(opSearch, len(pts), 0, 0, func() { found = b.inner.SearchBatch(pts) })
	return found
}

func (b *tracedBackend) InsertBatch(pts []geom.Point) {
	b.rec.Load().call(opInsert, len(pts), 0, 0, func() { b.inner.InsertBatch(pts) })
}

func (b *tracedBackend) DeleteBatch(pts []geom.Point) {
	b.rec.Load().call(opDelete, len(pts), 0, 0, func() { b.inner.DeleteBatch(pts) })
}

func (b *tracedBackend) KNNBatch(pts []geom.Point, k int) (nb [][]core.Neighbor) {
	b.rec.Load().call(opKNN, len(pts), 0, 0, func() { nb = b.inner.KNNBatch(pts, k) })
	return nb
}

func (b *tracedBackend) BoxCountBatch(boxes []geom.Box) (counts []int64) {
	b.rec.Load().call(opBox, len(boxes), 0, 0, func() { counts = b.inner.BoxCountBatch(boxes) })
	return counts
}

// TakeFanout hands the engine the report of the batch that just ran: the
// recorder has already consumed it from the index, so it is replayed here.
// Untraced, the index is asked directly.
func (b *tracedBackend) TakeFanout() *obs.FanoutReport {
	if l := b.rec.Load(); l != nil && l.fanout != nil {
		rep := l.lastFan
		l.lastFan = nil
		return rep
	}
	if fs, ok := b.inner.(serve.FanoutSource); ok {
		return fs.TakeFanout()
	}
	return nil
}
