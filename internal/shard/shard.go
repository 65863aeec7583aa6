// Package shard scales the PIM-zd-tree past one simulated rack: an Index
// partitions the key space across S independent core.Tree instances by
// Morton-code prefix and fronts them with a thin router, so the effective
// module count multiplies by S while every per-tree invariant (batch
// semantics, modeled cost accounting, epoch publication) is untouched.
//
// Partitioning rides the total order Morton keys already give the tree:
// S-1 cut keys chosen from the sampled key distribution carve [0, 2^kb)
// into S contiguous ranges, one tree per range. Because any key between
// two keys shares their common prefix, each range is covered by the
// prefix box of its endpoints' common prefix (morton.PrefixBox) — the
// geometric handle the router prunes with: box queries fan out only to
// shards whose prefix box intersects the query, and the cross-shard kNN
// merge skips shards whose prefix box lies outside the current k-th
// radius.
//
// The router splits every batch with a single counting pass, runs the
// shards as one fork-join phase (each shard owns its own pim.System — its
// own rack, and the modeled wall is the slowest shard's; on the host the S
// calls run one after another today, see forEach), and merges results and
// observability deterministically:
// per-shard obs recorders are drained into the parent recorder in shard
// order (obs.MergeWindow), so exports and modeled metrics are
// byte-identical at any GOMAXPROCS.
//
// Every S runs that one path. Its zero at one shard is structural, not a
// per-method check: with no cut there is nothing to route across, so the
// router has no pim.System (every router charge sits behind it), opens no
// op span, and shard 0's tree records straight into Config.Obs — no shard
// recorder to drain. The S=1 index's modeled output is therefore
// byte-identical to using the core.Tree directly (tested).
//
// Rebalancing: per-shard load windows (modeled cycles + channel bytes,
// the same accounting behind the /snapshot/modules heatmap) are checked
// every few update batches; when the busiest shard exceeds MaxImbalance
// times the mean, the cut keys are recomputed load-weighted and the
// affected shards rebuilt — points migrate between neighbors at the
// epoch boundary, before the Index publishes the batch's epoch, so
// readers of the serving pipeline only ever observe fully-published
// shards.
package shard

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"pimzdtree/internal/core"
	"pimzdtree/internal/costmodel"
	"pimzdtree/internal/geom"
	"pimzdtree/internal/morton"
	"pimzdtree/internal/obs"
	"pimzdtree/internal/parallel"
	"pimzdtree/internal/pim"
)

// Config sizes and tunes a sharded index.
type Config struct {
	// Trees is the shard count S (>= 1; at 1 the router routes nothing and
	// charges nothing).
	Trees int
	// Dims is the point dimensionality (2-4).
	Dims uint8
	// Machine is the per-shard PIM machine: every shard gets its own
	// rack of Machine.PIMModules modules.
	Machine costmodel.Machine
	// Tuning selects the per-tree threshold preset.
	Tuning core.Tuning
	// LeafCap bounds points per leaf (0 = core default).
	LeafCap int
	// Obs, when non-nil, receives the merged op/phase/round stream: the
	// router wraps each batch in an op span and drains the per-shard
	// recorders into it in shard order.
	Obs *obs.Recorder
	// LoadStats enables cumulative per-module load accounting on every
	// shard's system (the per-shard /snapshot/modules heatmap).
	LoadStats bool

	// Rebalance enables load-weighted repartitioning at epoch boundaries.
	Rebalance bool
	// MaxImbalance triggers a repartition when the busiest shard's window
	// load exceeds this multiple of the mean (0 = 1.5).
	MaxImbalance float64
	// CheckEvery is the number of update batches between rebalance checks
	// (0 = 4).
	CheckEvery int
	// MinShardPoints skips repartitioning while the index holds fewer
	// than this many points per shard on average (0 = 64).
	MinShardPoints int
}

func (c *Config) fill() {
	if c.Trees <= 0 {
		c.Trees = 1
	}
	if c.MaxImbalance == 0 {
		c.MaxImbalance = 1.5
	}
	if c.CheckEvery == 0 {
		c.CheckEvery = 4
	}
	if c.MinShardPoints == 0 {
		c.MinShardPoints = 64
	}
}

// shardT is one shard: a tree over a contiguous, inclusive key range.
type shardT struct {
	tree   *core.Tree
	rec    *obs.Recorder // shard-local recorder to drain (see shardRecorders)
	lo     uint64        // first key of the range
	hi     uint64        // last key of the range (inclusive)
	blocks []geom.Box    // tight aligned-block tiling of [lo, hi] (pruning)
	bt     blockTree     // hierarchy over blocks: cheap exclusion proofs
	base   pim.Metrics   // metrics snapshot at the current load-window start
}

// withinDist reports whether any point of the shard's key range can lie
// within squared distance bound of q (ties included) — the kNN fan-out
// prune. It descends the block hierarchy, which is exact at the leaves:
// the single common-prefix box can degrade to the whole space when the
// range straddles a high split bit, admitting every query, while a full
// scan of the flat tiling pays up to 2*KeyBits tests to exclude a far
// shard. checked returns the number of box-distance evaluations, for
// host-cost accounting.
func (sh *shardT) withinDist(q geom.Point, bound uint64) (hit bool, checked int) {
	return sh.bt.withinDist(q, bound)
}

// intersects reports whether the query box can contain any key of the
// shard's range, again via the tight block tiling.
func (sh *shardT) intersects(b geom.Box) bool {
	return sh.bt.intersects(b)
}

// Index is a Morton-prefix-sharded PIM-zd-tree. Batch methods mirror the
// serving engine's Backend contract: at most one batch runs at a time
// (the Index serializes internally), Epoch is readable from any
// goroutine and advances exactly once per update call, and the
// read-only snapshot methods (Stats, TreeStats, ModuleLoads, Imbalance,
// Metrics) are safe to call concurrently with batches.
type Index struct {
	cfg     Config
	keyBits uint

	mu   sync.RWMutex
	sh   []*shardT
	cuts []uint64 // len S-1, strictly increasing; cuts[i] = first key of shard i+1

	// router accounts the host-side cost of batch splitting and result
	// merging (nil when there is no cut: one shard routes nothing).
	router *pim.System
	// retired accumulates the final metrics of systems replaced during
	// repartitions, keeping Metrics() monotonic across migrations.
	retired pim.Metrics

	epoch             atomic.Uint64
	updatesSinceCheck int
	rebalances        int64
	migratedPoints    int64

	// routing scratch, reused across (externally serialized) batches
	ids        []int32
	counts     []int
	offs       []int
	scatterPts []geom.Point
	scatterIdx []int32

	// fan captures per-batch cross-shard fan-out spans (see fanout.go).
	fan fanState
}

// New builds a sharded index over the warmup points. Cut keys come from
// the sampled Morton-key distribution of the input (size quantiles), so
// shards start point-balanced; shard trees build in parallel, each on its
// own simulated rack.
func New(cfg Config, points []geom.Point) *Index {
	cfg.fill()
	x := &Index{cfg: cfg, keyBits: morton.KeyBits(int(cfg.Dims))}
	x.cuts = chooseCuts(points, cfg.Trees, x.maxKey())
	if len(x.cuts) > 0 {
		x.router = pim.NewSystem(cfg.Machine)
		x.router.SetRecorder(cfg.Obs)
	}

	// Partition the warmup set by cut the way every batch is routed: one
	// counting pass, one stable scatter into a flat array sliced per shard.
	// The trees copy what they keep, so the scatter is build scratch.
	flat, _, offs := x.route(points)
	defer func() { x.ids, x.scatterPts, x.scatterIdx = nil, nil, nil }()

	x.sh = make([]*shardT, cfg.Trees)
	recs := make([]*obs.Recorder, cfg.Trees)
	treeRecs := make([]*obs.Recorder, cfg.Trees)
	for s := range x.sh {
		recs[s], treeRecs[s] = x.shardRecorders(nil)
	}
	trees := make([]*core.Tree, cfg.Trees)
	parallel.For(cfg.Trees, func(s int) {
		trees[s] = core.New(x.coreConfig(treeRecs[s]), flat[offs[s]:offs[s+1]])
	})
	for s := range x.sh {
		lo, hi := x.rangeOf(s)
		x.sh[s] = x.newShardT(trees[s], recs[s], lo, hi)
	}
	x.mergeWindows()
	return x
}

// shardRecorders is the one recorder rule for shards, given a shard's
// current local recorder: a shard records into a recorder of its own
// (local, kept when it has one) only when the router opens an op span to
// merge it under. With no router the tree records straight into
// Config.Obs and there is no local recorder to drain.
func (x *Index) shardRecorders(local *obs.Recorder) (drain, tree *obs.Recorder) {
	switch {
	case !x.cfg.Obs.Enabled():
		return nil, nil
	case x.router == nil:
		return nil, x.cfg.Obs
	case local == nil:
		local = obs.New()
	}
	return local, local
}

// routerRec is the recorder the router opens its per-batch op span on:
// Config.Obs when there is a router, else nil — with one shard the tree's
// own op span is the batch's op.
func (x *Index) routerRec() *obs.Recorder {
	if x.router == nil {
		return nil
	}
	return x.cfg.Obs
}

func (x *Index) coreConfig(rec *obs.Recorder) core.Config {
	return core.Config{
		Dims:      x.cfg.Dims,
		Machine:   x.cfg.Machine,
		Tuning:    x.cfg.Tuning,
		LeafCap:   x.cfg.LeafCap,
		Obs:       rec,
		LoadStats: x.cfg.LoadStats,
	}
}

func (x *Index) newShardT(t *core.Tree, rec *obs.Recorder, lo, hi uint64) *shardT {
	blocks := morton.RangeBoxes(lo, hi, x.cfg.Dims)
	return &shardT{tree: t, rec: rec, lo: lo, hi: hi,
		blocks: blocks,
		bt:     buildBlockTree(blocks),
		base:   t.System().Metrics()}
}

// maxKey returns the largest representable key for the dimensionality.
func (x *Index) maxKey() uint64 {
	if x.keyBits >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<x.keyBits - 1
}

// rangeOf returns shard s's inclusive key range under the current cuts.
func (x *Index) rangeOf(s int) (lo, hi uint64) {
	lo = uint64(0)
	if s > 0 {
		lo = x.cuts[s-1]
	}
	hi = x.maxKey()
	if s < len(x.cuts) {
		hi = x.cuts[s] - 1
	}
	return lo, hi
}

// findShard returns the shard owning key: the number of cuts <= key.
func findShard(cuts []uint64, key uint64) int {
	return sort.Search(len(cuts), func(i int) bool { return key < cuts[i] })
}

// chooseCuts picks S-1 strictly increasing cut keys from the points' key
// distribution: size quantiles of the sorted keys, with even keyspace
// splits filling in wherever the keys are too concentrated (or absent)
// to yield distinct cuts. With one shard there is no cut to choose, and
// no key is encoded or sorted.
func chooseCuts(points []geom.Point, s int, maxKey uint64) []uint64 {
	if s < 2 {
		return nil
	}
	keys := make([]uint64, len(points))
	parallel.For(len(points), func(i int) { keys[i] = morton.EncodePoint(points[i]) })
	parallel.SortKeys(keys)
	cuts := make([]uint64, 0, s-1)
	prev := uint64(0) // first shard starts at key 0
	for j := 1; j < s; j++ {
		var c uint64
		if len(keys) > 0 {
			c = keys[j*len(keys)/s]
		}
		// Even split fallback keeps cuts strictly increasing with room
		// for the remaining shards.
		if even := prev + (maxKey-prev)/uint64(s-j+1); c <= prev || c > maxKey-(uint64(s-1-j)) {
			c = even
		}
		if c <= prev {
			c = prev + 1
		}
		cuts = append(cuts, c)
		prev = c
	}
	return cuts
}

// Dims returns the indexed dimensionality.
func (x *Index) Dims() uint8 { return x.cfg.Dims }

// Size returns the total stored point count across shards.
func (x *Index) Size() int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.sizeLocked()
}

func (x *Index) sizeLocked() int {
	n := 0
	for _, sh := range x.sh {
		n += sh.tree.Size()
	}
	return n
}

// Epoch returns the published update epoch: one bump per update call
// (empty batches included), after any epoch-boundary migration completed.
func (x *Index) Epoch() uint64 { return x.epoch.Load() }

func (x *Index) String() string {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return fmt.Sprintf("shard.Index{S=%d, n=%d, p=%d/shard}",
		len(x.sh), x.sizeLocked(), x.cfg.Machine.PIMModules)
}
