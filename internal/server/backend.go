package server

import (
	"sync"
	"sync/atomic"

	"pimzdtree/internal/core"
	"pimzdtree/internal/costmodel"
	"pimzdtree/internal/geom"
	"pimzdtree/internal/obs"
	"pimzdtree/internal/pkdtree"
	"pimzdtree/internal/serve"
	"pimzdtree/internal/shard"
	"pimzdtree/internal/zdtree"
)

// lockedBackend serializes backend batches with the admin stats snapshot:
// the engine executor is the only batch caller, but /snapshot/tree walks
// tree internals that update batches mutate, so both take this lock. The
// lock is uncontended on the hot path.
type lockedBackend struct {
	mu sync.Mutex
	b  serve.Backend
}

func (l *lockedBackend) Dims() uint8 { return l.b.Dims() }
func (l *lockedBackend) SearchBatch(pts []geom.Point) []bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.SearchBatch(pts)
}
func (l *lockedBackend) InsertBatch(pts []geom.Point) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.b.InsertBatch(pts)
}
func (l *lockedBackend) DeleteBatch(pts []geom.Point) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.b.DeleteBatch(pts)
}
func (l *lockedBackend) KNNBatch(pts []geom.Point, k int) [][]core.Neighbor {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.KNNBatch(pts, k)
}
func (l *lockedBackend) BoxCountBatch(boxes []geom.Box) []int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.BoxCountBatch(boxes)
}
func (l *lockedBackend) Epoch() uint64 { return l.b.Epoch() }

// TakeFanout forwards the inner backend's fan-out report so the engine's
// FanoutSource assertion sees the capability through the lock; backends
// without one report nil, which the engine reads as "capture off". (A
// sharded index serializes TakeFanout itself and the engine calls it from
// the executor goroutine that just ran the batch, so the snapshot lock is
// not needed.)
func (l *lockedBackend) TakeFanout() *obs.FanoutReport {
	if fs, ok := l.b.(serve.FanoutSource); ok {
		return fs.TakeFanout()
	}
	return nil
}

// neighbor matches the CPU baseline packages' own Neighbor types, which are
// structurally identical to (and so convertible to) core.Neighbor.
type neighbor interface {
	~struct {
		Point geom.Point
		Dist  uint64
	}
}

// cpuTree is what the CPU baseline trees (zdtree, pkdtree) share.
type cpuTree[N neighbor] interface {
	Contains(p geom.Point) bool
	Insert(pts []geom.Point)
	Delete(pts []geom.Point)
	KNN(q geom.Point, k int, metric geom.Metric) []N
	BoxCountBatch(boxes []geom.Box) []int
}

// baselineBackend adapts a CPU baseline tree to the serving engine's
// Backend interface. The epoch counter mirrors core.Tree's publication
// protocol: one bump per applied update batch.
type baselineBackend[N neighbor] struct {
	dims  uint8
	t     cpuTree[N]
	epoch atomic.Uint64
}

func (b *baselineBackend[N]) Dims() uint8   { return b.dims }
func (b *baselineBackend[N]) Epoch() uint64 { return b.epoch.Load() }
func (b *baselineBackend[N]) SearchBatch(pts []geom.Point) []bool {
	found := make([]bool, len(pts))
	for i, p := range pts {
		found[i] = b.t.Contains(p)
	}
	return found
}
func (b *baselineBackend[N]) InsertBatch(pts []geom.Point) { b.t.Insert(pts); b.epoch.Add(1) }
func (b *baselineBackend[N]) DeleteBatch(pts []geom.Point) { b.t.Delete(pts); b.epoch.Add(1) }
func (b *baselineBackend[N]) KNNBatch(pts []geom.Point, k int) [][]core.Neighbor {
	out := make([][]core.Neighbor, len(pts))
	for i, p := range pts {
		nbs := b.t.KNN(p, k, geom.L2)
		out[i] = make([]core.Neighbor, len(nbs))
		for j, nb := range nbs {
			out[i][j] = core.Neighbor(nb)
		}
	}
	return out
}
func (b *baselineBackend[N]) BoxCountBatch(boxes []geom.Box) []int64 {
	counts := b.t.BoxCountBatch(boxes)
	out := make([]int64, len(counts))
	for i, c := range counts {
		out[i] = int64(c)
	}
	return out
}

// builtIndex is one constructed index plus its admin hooks.
type builtIndex struct {
	backend     serve.Backend
	stats       func() any
	moduleLoads func() (cycles, bytes []int64) // nil for the CPU baselines
	shards      *shard.Index                   // nil unless Trees > 1
}

// buildIndex constructs the index a validated Config names over the
// warmup points.
func buildIndex(cfg Config, tuning core.Tuning, rec *obs.Recorder, warm []geom.Point) builtIndex {
	dims := uint8(cfg.Dims)
	switch cfg.Engine {
	case "zd":
		t := zdtree.New(zdtree.Config{Dims: dims, Obs: rec}, warm)
		return builtIndex{
			backend: &baselineBackend[zdtree.Neighbor]{dims: dims, t: t},
			stats:   func() any { return t.Stats() },
		}
	case "pkd":
		t := pkdtree.New(pkdtree.Config{Dims: dims, Obs: rec}, warm)
		return builtIndex{
			backend: &baselineBackend[pkdtree.Neighbor]{dims: dims, t: t},
			stats:   func() any { return t.Stats() },
		}
	}
	machine := costmodel.UPMEMServer()
	machine.PIMModules = cfg.Modules
	if cfg.Trees > 1 {
		x := shard.New(shard.Config{
			Trees: cfg.Trees, Dims: dims, Machine: machine, Tuning: tuning,
			Obs: rec, LoadStats: true, Rebalance: true,
		}, warm)
		x.SetFanoutCapture(true)
		return builtIndex{
			backend:     x,
			stats:       func() any { return x.Stats() },
			moduleLoads: x.ModuleLoads,
			shards:      x,
		}
	}
	t := core.New(core.Config{
		Dims: dims, Machine: machine, Tuning: tuning,
		Obs: rec, LoadStats: true,
	}, warm)
	return builtIndex{
		backend:     serve.NewTreeBackend(t),
		stats:       func() any { return t.Stats() },
		moduleLoads: t.System().ModuleLoads,
	}
}
