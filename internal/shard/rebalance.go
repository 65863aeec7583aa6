package shard

import (
	"sort"

	"pimzdtree/internal/core"
	"pimzdtree/internal/geom"
	"pimzdtree/internal/morton"
	"pimzdtree/internal/obs"
	"pimzdtree/internal/parallel"
)

// Epoch-boundary rebalancing. Every shard system already meters its own
// modeled cycles and channel bytes (the accounting behind the
// /snapshot/modules heatmap, here kept per shard); the router samples
// those meters in windows of CheckEvery update batches. When the busiest
// shard's window load passes MaxImbalance times the mean, the cut keys
// are recomputed load-weighted — each stored point weighted by its
// shard's per-point window load, new cuts at equal cumulative-load
// quantiles — and only the shards whose ranges moved are rebuilt. The
// whole repartition runs inside the update batch, before the Index
// publishes the batch's epoch, so serving-pipeline readers gated on
// Epoch() never observe a half-migrated index.

// windowLoad is one shard's modeled load since its window base: total
// module cycles plus channel bytes, the two terms a hot Morton range
// inflates.
func windowLoad(sh *shardT) int64 {
	d := sh.tree.System().Metrics().Sub(sh.base)
	return d.PIMCycleTotal + d.ChannelBytes()
}

func (x *Index) windowLoadsLocked() []int64 {
	loads := make([]int64, len(x.sh))
	for i, sh := range x.sh {
		loads[i] = windowLoad(sh)
	}
	return loads
}

// imbalance is busiest-shard load over mean load (1 when idle).
func imbalance(loads []int64) float64 {
	var sum, max int64
	for _, l := range loads {
		sum += l
		if l > max {
			max = l
		}
	}
	if sum == 0 {
		return 1
	}
	return float64(max) * float64(len(loads)) / float64(sum)
}

// Imbalance returns the busiest/mean load ratio of the current
// (in-progress) load window.
func (x *Index) Imbalance() float64 {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return imbalance(x.windowLoadsLocked())
}

// Rebalances returns how many repartitions the index has performed.
func (x *Index) Rebalances() int64 {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.rebalances
}

// MigratedPoints returns how many points have changed shards across all
// repartitions.
func (x *Index) MigratedPoints() int64 {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.migratedPoints
}

// maybeRebalance runs the end-of-window check. Caller holds mu; runs
// inside the update batch, before the epoch is published.
func (x *Index) maybeRebalance() {
	if len(x.cuts) == 0 || !x.cfg.Rebalance {
		return // no cut to move
	}
	x.updatesSinceCheck++
	if x.updatesSinceCheck < x.cfg.CheckEvery {
		return
	}
	x.updatesSinceCheck = 0
	loads := x.windowLoadsLocked()
	// The next window starts here whether or not we repartition.
	defer func() {
		for _, sh := range x.sh {
			sh.base = sh.tree.System().Metrics()
		}
	}()
	if imbalance(loads) <= x.cfg.MaxImbalance {
		return
	}
	if x.sizeLocked() < x.cfg.MinShardPoints*len(x.sh) {
		return
	}
	x.repartition(loads)
}

// repartition recomputes load-weighted cuts and rebuilds the shards whose
// key ranges moved. Caller holds mu.
func (x *Index) repartition(loads []int64) {
	rec := x.cfg.Obs
	rec.BeginOp("rebalance")
	s := len(x.sh)

	// Gather the stored points; per-shard Points() is key-ordered and the
	// shards are range-ordered, so the concatenation is globally sorted.
	oldOffs := make([]int, s+1)
	total := 0
	for i, sh := range x.sh {
		oldOffs[i] = total
		total += sh.tree.Size()
	}
	oldOffs[s] = total
	all := make([]geom.Point, 0, total)
	for _, sh := range x.sh {
		all = append(all, sh.tree.Points()...)
	}
	keys := make([]uint64, total)
	parallel.For(total, func(i int) { keys[i] = morton.EncodePoint(all[i]) })

	// Cumulative load-weighted mass: every point carries its shard's
	// per-point window load (idle shards still weigh a minimum so empty
	// ranges cannot absorb the whole keyspace).
	weight := make([]float64, total)
	var mass float64
	for i := range x.sh {
		n := oldOffs[i+1] - oldOffs[i]
		if n == 0 {
			continue
		}
		w := float64(loads[i]) / float64(n)
		if w < 1 {
			w = 1
		}
		for j := oldOffs[i]; j < oldOffs[i+1]; j++ {
			mass += w
			weight[j] = mass
		}
	}

	// New cuts at equal cumulative-load quantiles, kept strictly
	// increasing with keyspace room for the remaining shards.
	newCuts := make([]uint64, 0, s-1)
	prev := uint64(0)
	maxKey := x.maxKey()
	for j := 1; j < s; j++ {
		target := mass * float64(j) / float64(s)
		p := sort.Search(total, func(i int) bool { return weight[i] >= target })
		var c uint64
		if p < total {
			c = keys[p]
		}
		if c <= prev || c > maxKey-uint64(s-1-j) {
			c = prev + (maxKey-prev)/uint64(s-j+1)
		}
		if c <= prev {
			c = prev + 1
		}
		newCuts = append(newCuts, c)
		prev = c
	}

	// Partition positions under the new cuts.
	newOffs := make([]int, s+1)
	for j, c := range newCuts {
		newOffs[j+1] = sort.Search(total, func(i int) bool { return keys[i] >= c })
	}
	newOffs[s] = total

	// Migrated points: everything outside the old/new range overlaps.
	moved := int64(total)
	for i := 0; i < s; i++ {
		lo := oldOffs[i]
		if newOffs[i] > lo {
			lo = newOffs[i]
		}
		hi := oldOffs[i+1]
		if newOffs[i+1] < hi {
			hi = newOffs[i+1]
		}
		if hi > lo {
			moved -= int64(hi - lo)
		}
	}

	// Host cost of the repartition: one key-encode + quantile scan over
	// the stored set, plus streaming the migrated points out and back in.
	// (A repartition moves cuts, so there is a router to charge.)
	x.router.CPUPhase(int64(total)*(morton.CostFast(x.cfg.Dims)+4),
		int64(total)*routePointBytes+moved*2*routePointBytes, 0)

	// Rebuild only the shards whose range moved; their replaced systems'
	// meters are retired so Metrics() stays monotonic.
	x.cuts = newCuts
	rebuilt := make([]*core.Tree, s)
	recs := make([]*obs.Recorder, s)
	parallel.For(s, func(i int) {
		lo, hi := x.rangeOf(i)
		if lo == x.sh[i].lo && hi == x.sh[i].hi {
			return // range unchanged => contents unchanged
		}
		var tree *obs.Recorder
		recs[i], tree = x.shardRecorders(x.sh[i].rec)
		rebuilt[i] = core.New(x.coreConfig(tree), all[newOffs[i]:newOffs[i+1]])
	})
	for i, t := range rebuilt {
		if t == nil {
			continue
		}
		x.retired = x.retired.Add(x.sh[i].tree.System().Metrics())
		lo, hi := x.rangeOf(i)
		x.sh[i] = x.newShardT(t, recs[i], lo, hi)
	}

	x.rebalances++
	x.migratedPoints += moved
	rec.Add("shard-rebalances", 1)
	rec.Add("shard-migrated-points", moved)
	x.mergeWindows()
	rec.EndOp()
}
