package shard

import (
	"pimzdtree/internal/core"
	"pimzdtree/internal/morton"
	"pimzdtree/internal/obs"
	"pimzdtree/internal/pim"
)

// ShardStat is one shard's row in the Stats snapshot.
type ShardStat struct {
	Lo         uint64  `json:"lo"`
	Hi         uint64  `json:"hi"`
	PrefixLen  uint    `json:"prefix_len"`
	Points     int     `json:"points"`
	WindowLoad int64   `json:"window_load"`
	Modules    int     `json:"modules"`
	Epoch      uint64  `json:"epoch"`
	Seconds    float64 `json:"modeled_seconds"`
}

// Stats is a point-in-time snapshot of the sharded index, served at
// /snapshot/shards.
type Stats struct {
	Shards         int         `json:"shards"`
	Points         int         `json:"points"`
	Epoch          uint64      `json:"epoch"`
	Rebalances     int64       `json:"rebalances"`
	MigratedPoints int64       `json:"migrated_points"`
	Imbalance      float64     `json:"imbalance"`
	PerShard       []ShardStat `json:"per_shard"`
}

// Stats snapshots the per-shard layout and load profile. Safe to call
// concurrently with batches.
func (x *Index) Stats() Stats {
	x.mu.RLock()
	defer x.mu.RUnlock()
	st := Stats{
		Shards:         len(x.sh),
		Points:         x.sizeLocked(),
		Epoch:          x.Epoch(),
		Rebalances:     x.rebalances,
		MigratedPoints: x.migratedPoints,
		PerShard:       make([]ShardStat, len(x.sh)),
	}
	loads := x.windowLoadsLocked()
	st.Imbalance = imbalance(loads)
	for i, sh := range x.sh {
		st.PerShard[i] = ShardStat{
			Lo:         sh.lo,
			Hi:         sh.hi,
			PrefixLen:  morton.CommonPrefixLen(sh.lo, sh.hi, int(x.cfg.Dims)),
			Points:     sh.tree.Size(),
			WindowLoad: loads[i],
			Modules:    sh.tree.P(),
			Epoch:      sh.tree.Epoch(),
			Seconds:    sh.tree.System().Metrics().TotalSeconds(),
		}
	}
	return st
}

// TreeStats returns every shard tree's structural statistics in shard
// order, served at /snapshot/tree. Safe to call concurrently with batches.
func (x *Index) TreeStats() []core.Stats {
	x.mu.RLock()
	defer x.mu.RUnlock()
	st := make([]core.Stats, len(x.sh))
	for i, sh := range x.sh {
		st[i] = sh.tree.Stats()
	}
	return st
}

// ModuleLoads returns the cumulative per-module load vectors of every
// shard concatenated in shard order — the per-shard heatmap: S racks of
// P modules, shard s occupying [s*P, (s+1)*P). Requires LoadStats.
func (x *Index) ModuleLoads() (cycles, bytes []int64) {
	x.mu.RLock()
	defer x.mu.RUnlock()
	for _, sh := range x.sh {
		c, b := sh.tree.System().ModuleLoads()
		cycles = append(cycles, c...)
		bytes = append(bytes, b...)
	}
	return cycles, bytes
}

// Metrics returns the aggregate modeled cost over every shard's rack,
// the router, and any systems retired by repartitions — monotonic across
// migrations.
func (x *Index) Metrics() pim.Metrics {
	x.mu.RLock()
	defer x.mu.RUnlock()
	m := x.retired
	for _, sh := range x.sh {
		m = m.Add(sh.tree.System().Metrics())
	}
	if x.router != nil {
		m = m.Add(x.router.Metrics())
	}
	return m
}

// ShardMetrics returns each live shard rack's own modeled metrics, in
// shard order (window bases not subtracted).
func (x *Index) ShardMetrics() []pim.Metrics {
	x.mu.RLock()
	defer x.mu.RUnlock()
	ms := make([]pim.Metrics, len(x.sh))
	for i, sh := range x.sh {
		ms[i] = sh.tree.System().Metrics()
	}
	return ms
}

// SetRecorder attaches a recorder after construction (the trace CLI
// builds first, then records a single traced op). The shards' recorders
// follow the same rule as at construction (see shardRecorders).
func (x *Index) SetRecorder(r *obs.Recorder) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.cfg.Obs = r
	if x.router != nil {
		x.router.SetRecorder(r)
	}
	for _, sh := range x.sh {
		var tree *obs.Recorder
		sh.rec, tree = x.shardRecorders(sh.rec)
		sh.tree.System().SetRecorder(tree)
	}
}

// ResetMetrics zeroes every rack's meters, the router's, and the retired
// accumulator, and restarts the load windows.
func (x *Index) ResetMetrics() {
	x.mu.Lock()
	defer x.mu.Unlock()
	for _, sh := range x.sh {
		sh.tree.System().ResetMetrics()
		sh.base = pim.Metrics{}
	}
	if x.router != nil {
		x.router.ResetMetrics()
	}
	x.retired = pim.Metrics{}
}
