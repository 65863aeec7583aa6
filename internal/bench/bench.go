// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation section (§7) on the simulated PIM
// system and the modeled baseline machine, printing the same rows/series
// the paper reports.
//
// Experiments (see DESIGN.md for the full index):
//
//	Fig5       — throughput + per-element traffic for 10 operation types
//	             across the three systems, on uniform/COSMOS-like/OSM-like
//	             data (Fig. 5a/5b/5c)
//	Fig6       — runtime breakdown (CPU / PIM / communication)
//	Fig7       — INSERT throughput and traffic vs batch size
//	Fig8       — 1-NN throughput and traffic vs base dataset size
//	Fig9       — skew resistance under Uniform+Varden query mixes
//	Table2     — measured communication rounds/bytes of the two configs
//	Table3     — ablation slowdowns for the four §6 techniques
//	Latency    — P99 1-NN latency on the OSM-like dataset
//	Dims       — 2D vs 3D sensitivity
//
// Scales are reduced from the paper's 300M-point warmups (no 128 GB PIM
// memory here); all times are modeled from counted work and traffic, so
// shapes are scale-stable (see DESIGN.md).
package bench

import (
	"sync/atomic"

	"pimzdtree/internal/core"
	"pimzdtree/internal/costmodel"
	"pimzdtree/internal/geom"
	"pimzdtree/internal/memsim"
	"pimzdtree/internal/pkdtree"
	"pimzdtree/internal/workload"
	"pimzdtree/internal/zdtree"
)

// Params scales the experiments.
type Params struct {
	Seed     int64
	WarmupN  int   // points inserted before measurement
	BatchOps int   // point operations per measured batch
	Dims     uint8 // point dimensionality
	P        int   // PIM modules
}

// Defaults returns the standard scaled-down parameters.
func Defaults() Params {
	return Params{Seed: 42, WarmupN: 400_000, BatchOps: 40_000, Dims: 3, P: 2048}
}

func (p *Params) fill() {
	d := Defaults()
	if p.Seed == 0 {
		p.Seed = d.Seed
	}
	if p.WarmupN == 0 {
		p.WarmupN = d.WarmupN
	}
	if p.BatchOps == 0 {
		p.BatchOps = d.BatchOps
	}
	if p.Dims == 0 {
		p.Dims = d.Dims
	}
	if p.P == 0 {
		p.P = d.P
	}
}

// OpCost is the measured cost of one operation batch.
type OpCost struct {
	Elements int     // returned elements (or executed ops for point ops)
	Seconds  float64 // modeled execution time
	BusBytes int64   // memory-bus traffic (DRAM and/or CPU<->PIM channels)
	Joules   float64 // modeled energy (first-order, see costmodel energy)
}

// EnergyPerElem returns modeled joules per returned element.
func (c OpCost) EnergyPerElem() float64 {
	if c.Elements == 0 {
		return 0
	}
	return c.Joules / float64(c.Elements)
}

// Throughput returns elements per second.
func (c OpCost) Throughput() float64 { return costmodel.Throughput(c.Elements, c.Seconds) }

// TrafficPerElem returns bus bytes per returned element.
func (c OpCost) TrafficPerElem() float64 {
	return costmodel.PerElementTraffic(c.BusBytes, c.Elements)
}

// runner abstracts the three systems under test.
type runner interface {
	Name() string
	Insert(batch []geom.Point) OpCost
	Delete(batch []geom.Point) OpCost
	KNN(qs []geom.Point, k int) OpCost
	BoxCount(boxes []geom.Box) OpCost
	BoxFetch(boxes []geom.Box) OpCost
}

// --- PIM-zd-tree runner ---

type pimRunner struct {
	name string
	tree *core.Tree
}

// paperBatchOps is the batch size of the paper's Fig. 5 microbenchmarks
// (50M point operations). Scaled-down batches would otherwise be dominated
// by fixed per-round costs (mux switches, launch overhead) that the
// paper's batches amortize to nothing, so the harness scales those fixed
// costs by the batch ratio — the same regime-preserving scaling applied to
// the baseline LLC. Fig. 7 is the exception: it sweeps absolute batch
// sizes on the unscaled machine, exactly as the paper does.
const paperBatchOps = 50_000_000

// scaledPIMMachine returns the UPMEM machine with fixed per-round costs
// scaled to the configured batch size (rawRounds disables the scaling).
func scaledPIMMachine(p Params, rawRounds bool) costmodel.Machine {
	machine := costmodel.UPMEMServer()
	machine.PIMModules = p.P
	if !rawRounds {
		f := float64(p.BatchOps) / paperBatchOps
		if f < 1 {
			machine.MuxSwitch *= f
			machine.PerModuleHdr *= f
		}
	}
	return machine
}

// newPIMRunner builds a warmed PIM-zd-tree.
func newPIMRunner(p Params, tuning core.Tuning, warmup []geom.Point, mutate func(*core.Config)) *pimRunner {
	cfg := core.Config{Dims: p.Dims, Machine: scaledPIMMachine(p, false), Tuning: tuning}
	if mutate != nil {
		mutate(&cfg)
	}
	return &pimRunner{name: "PIM-zd-tree", tree: core.New(cfg, warmup)}
}

// newRawPIMRunner builds a PIM-zd-tree on the unscaled machine (Fig. 7).
func newRawPIMRunner(p Params, tuning core.Tuning, warmup []geom.Point) *pimRunner {
	cfg := core.Config{Dims: p.Dims, Machine: scaledPIMMachine(p, true), Tuning: tuning}
	return &pimRunner{name: "PIM-zd-tree", tree: core.New(cfg, warmup)}
}

func (r *pimRunner) Name() string { return r.name }

func (r *pimRunner) measure(elements func() int) OpCost {
	before := r.tree.System().Metrics()
	n := elements()
	delta := r.tree.System().Metrics().Sub(before)
	return OpCost{
		Elements: n,
		Seconds:  delta.TotalSeconds(),
		BusBytes: delta.BusBytes(),
		// PIM-local bytes approximated as one word per PIM cycle.
		Joules: costmodel.PIMEnergy(delta.CPUWork, delta.CPUTraffic,
			delta.ChannelBytes(), delta.PIMCycleTotal, delta.PIMCycleTotal*8),
	}
}

func (r *pimRunner) Insert(batch []geom.Point) OpCost {
	return r.measure(func() int { r.tree.Insert(batch); return len(batch) })
}

func (r *pimRunner) Delete(batch []geom.Point) OpCost {
	return r.measure(func() int { r.tree.Delete(batch); return len(batch) })
}

func (r *pimRunner) KNN(qs []geom.Point, k int) OpCost {
	return r.measure(func() int {
		res := r.tree.KNN(qs, k)
		n := 0
		for _, ns := range res {
			n += len(ns)
		}
		return n
	})
}

func (r *pimRunner) BoxCount(boxes []geom.Box) OpCost {
	return r.measure(func() int { r.tree.BoxCount(boxes); return len(boxes) })
}

func (r *pimRunner) BoxFetch(boxes []geom.Box) OpCost {
	return r.measure(func() int {
		res := r.tree.BoxFetch(boxes)
		n := 0
		for _, pts := range res {
			n += len(pts)
		}
		return n
	})
}

// --- shared-memory baseline runners ---

// cpuRunner wraps a baseline tree with the instrumentation needed to model
// its execution on the baseline machine: an LLC simulator for DRAM traffic
// and work/chase counters for the roofline.
type cpuRunner struct {
	name    string
	machine costmodel.Machine
	cache   *memsim.Cache
	work    *atomic.Int64
	chase   *atomic.Int64

	insert   func([]geom.Point)
	delete   func([]geom.Point)
	knn      func([]geom.Point, int) int
	boxCount func([]geom.Box) int
	boxFetch func([]geom.Box) int
}

func (r *cpuRunner) Name() string { return r.name }

func (r *cpuRunner) measure(elements func() int) OpCost {
	w0, c0, s0 := r.work.Load(), r.chase.Load(), r.cache.Stats()
	n := elements()
	w1, c1, s1 := r.work.Load(), r.chase.Load(), r.cache.Stats()
	traffic := s1.DRAMBytes() - s0.DRAMBytes()
	secs := r.machine.CPUPhase(w1-w0, traffic, c1-c0)
	return OpCost{
		Elements: n,
		Seconds:  secs,
		BusBytes: traffic,
		Joules:   costmodel.BaselineEnergy(w1-w0, traffic),
	}
}

func (r *cpuRunner) Insert(batch []geom.Point) OpCost {
	return r.measure(func() int { r.insert(batch); return len(batch) })
}

func (r *cpuRunner) Delete(batch []geom.Point) OpCost {
	return r.measure(func() int { r.delete(batch); return len(batch) })
}

func (r *cpuRunner) KNN(qs []geom.Point, k int) OpCost {
	return r.measure(func() int { return r.knn(qs, k) })
}

func (r *cpuRunner) BoxCount(boxes []geom.Box) OpCost {
	return r.measure(func() int { return r.boxCount(boxes) })
}

func (r *cpuRunner) BoxFetch(boxes []geom.Box) OpCost {
	return r.measure(func() int { return r.boxFetch(boxes) })
}

// paperWarmupN is the warmup size of the paper's microbenchmarks (300M
// points). Experiments here run scaled down; to preserve the paper's
// locality regime (dataset far larger than the LLC), the baseline
// machine's simulated LLC is scaled by the same factor as the dataset.
// The PIM side needs no such scaling: its L0 working set is P-dependent,
// not n-dependent, and sits within the CPU cache in both regimes.
const paperWarmupN = 300_000_000

// scaledLLC returns the baseline LLC size preserving the paper's
// cache-to-data ratio at the scaled warmup size.
func scaledLLC(machine costmodel.Machine, warmupN int) int64 {
	scaled := machine.LLCBytes * int64(warmupN) / paperWarmupN
	if scaled < 32<<10 {
		scaled = 32 << 10
	}
	return scaled
}

// newZDRunner builds a warmed shared-memory zd-tree baseline.
func newZDRunner(p Params, warmup []geom.Point) *cpuRunner {
	machine := costmodel.BaselineServer()
	cache := memsim.NewCache(scaledLLC(machine, p.WarmupN), machine.LLCWays)
	work, chase := new(atomic.Int64), new(atomic.Int64)
	tree := zdtree.New(zdtree.Config{Dims: p.Dims, Cache: cache, Work: work, Chase: chase}, warmup)
	return &cpuRunner{
		name:    "zd-tree",
		machine: machine,
		cache:   cache,
		work:    work,
		chase:   chase,
		insert:  tree.Insert,
		delete:  tree.Delete,
		knn: func(qs []geom.Point, k int) int {
			res := tree.KNNBatch(qs, k, geom.L2)
			n := 0
			for _, ns := range res {
				n += len(ns)
			}
			return n
		},
		boxCount: func(boxes []geom.Box) int {
			tree.BoxCountBatch(boxes)
			return len(boxes)
		},
		boxFetch: func(boxes []geom.Box) int {
			res := tree.BoxFetchBatch(boxes)
			n := 0
			for _, pts := range res {
				n += len(pts)
			}
			return n
		},
	}
}

// newPKDRunner builds a warmed Pkd-tree baseline.
func newPKDRunner(p Params, warmup []geom.Point) *cpuRunner {
	machine := costmodel.BaselineServer()
	cache := memsim.NewCache(scaledLLC(machine, p.WarmupN), machine.LLCWays)
	work, chase := new(atomic.Int64), new(atomic.Int64)
	tree := pkdtree.New(pkdtree.Config{Dims: p.Dims, Cache: cache, Work: work, Chase: chase},
		append([]geom.Point(nil), warmup...))
	return &cpuRunner{
		name:    "Pkd-tree",
		machine: machine,
		cache:   cache,
		work:    work,
		chase:   chase,
		insert:  tree.Insert,
		delete:  tree.Delete,
		knn: func(qs []geom.Point, k int) int {
			res := tree.KNNBatch(qs, k, geom.L2)
			n := 0
			for _, ns := range res {
				n += len(ns)
			}
			return n
		},
		boxCount: func(boxes []geom.Box) int {
			tree.BoxCountBatch(boxes)
			return len(boxes)
		},
		boxFetch: func(boxes []geom.Box) int {
			res := tree.BoxFetchBatch(boxes)
			n := 0
			for _, pts := range res {
				n += len(pts)
			}
			return n
		},
	}
}

// allRunners builds the three warmed systems over the same dataset.
func allRunners(p Params, warmup []geom.Point) []runner {
	return []runner{
		newPIMRunner(p, core.ThroughputOptimized, warmup, nil),
		newPKDRunner(p, warmup),
		newZDRunner(p, warmup),
	}
}

// opBatches prepares the query batches for the ten Fig. 5 operations over
// a warmed dataset.
type opBatches struct {
	insert  []geom.Point
	boxes1  []geom.Box
	boxes10 []geom.Box
	boxes1h []geom.Box
	knnQs   []geom.Point
}

// makeBatches prepares the query batches. Inserted points follow the
// dataset's own distribution (the paper warms up on 80% of each dataset
// and tests with the remaining 20%).
func makeBatches(p Params, data []geom.Point) opBatches {
	return opBatches{
		insert:  workload.QueryPoints(p.Seed+100, data, p.BatchOps),
		boxes1:  workload.QueryBoxes(p.Seed+101, data, p.BatchOps, 1),
		boxes10: workload.QueryBoxes(p.Seed+102, data, p.BatchOps/4, 10),
		boxes1h: workload.QueryBoxes(p.Seed+103, data, p.BatchOps/20, 100),
		knnQs:   workload.QueryPoints(p.Seed+104, data, p.BatchOps/4),
	}
}

// OpNames lists the ten Fig. 5 operations in paper order.
var OpNames = []string{
	"Insert", "BC-1", "BC-10", "BC-100", "BF-1", "BF-10", "BF-100",
	"1-NN", "10-NN", "100-NN",
}

// runOps measures all ten operations on one runner.
func runOps(r runner, b opBatches, batchOps int) map[string]OpCost {
	knn1 := b.knnQs
	knn10 := b.knnQs
	knn100 := b.knnQs
	if len(knn100) > batchOps/40 {
		knn100 = knn100[:batchOps/40]
	}
	return map[string]OpCost{
		"Insert": r.Insert(b.insert),
		"BC-1":   r.BoxCount(b.boxes1),
		"BC-10":  r.BoxCount(b.boxes10),
		"BC-100": r.BoxCount(b.boxes1h),
		"BF-1":   r.BoxFetch(b.boxes1),
		"BF-10":  r.BoxFetch(b.boxes10),
		"BF-100": r.BoxFetch(b.boxes1h),
		"1-NN":   r.KNN(knn1, 1),
		"10-NN":  r.KNN(knn10, 10),
		"100-NN": r.KNN(knn100, 100),
	}
}
