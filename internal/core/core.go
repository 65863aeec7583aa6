// Package core implements PIM-zd-tree, the paper's contribution: a
// batch-dynamic zd-tree distributed across the PIM modules of a
// processing-in-memory system (simulated by internal/pim).
//
// The index divides the logical zd-tree into three layers by subtree size
// (§3.1): L0 nodes (subtree size >= ThetaL0) are globally shared — kept in
// the CPU cache, or replicated on every module when they outgrow it; L1
// nodes (>= ThetaL1) have a master on a hashed module plus structural
// caching that lets any search finish its whole L1 segment locally; L2
// nodes are exclusive to their master module. L1 and L2 are grouped into
// meta-nodes (chunks) by the subtree-size rule of §3.2, with the practical
// sparse/dense chunk layouts of §6. Batched operations use push-pull
// search (§3.3) for load balance and lazy counters (§3.4) to keep
// replicated subtree sizes approximately consistent at low cost.
//
// The logical tree is maintained on the host (the simulator orchestrates
// everything, exactly as the UPMEM host CPU does); physical placement,
// communication, rounds and per-module work are accounted through
// internal/pim so that every reported metric is a PIM-Model metric.
package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"pimzdtree/internal/costmodel"
	"pimzdtree/internal/geom"
	"pimzdtree/internal/morton"
	"pimzdtree/internal/obs"
	"pimzdtree/internal/parallel"
	"pimzdtree/internal/pim"
)

// Layer identifies which of the three layers a node belongs to.
type Layer uint8

const (
	// L0 nodes are globally shared (§3.1, "Globally-Shared Nodes").
	L0 Layer = iota
	// L1 nodes are partially shared: master plus path caching.
	L1
	// L2 nodes are exclusive: master copy only.
	L2
)

// String names the layer as in the paper.
func (l Layer) String() string {
	switch l {
	case L0:
		return "L0"
	case L1:
		return "L1"
	case L2:
		return "L2"
	default:
		return fmt.Sprintf("Layer(%d)", uint8(l))
	}
}

// Modeled byte sizes for traffic and space accounting.
const (
	nodeBytes        = 32 // chunk-resident node: split metadata, child refs, counter
	leafHeaderBytes  = 16
	pointBytes       = 16 // key + packed coordinates
	chunkHeaderBytes = 64
	queryMsgBytes    = 8 // query key pushed to a module (ids are implicit
	// in batch order, as with the Direct API's raw word writes)
	resultMsgBytes  = 8  // per-query result (node address) returned to the CPU
	linkMsgBytes    = 16 // parent/child link fix sent to a module
	counterMsgBytes = 8  // lazy-counter snapshot propagation per replica
)

// Tuning selects one of the two implemented configurations (Table 2), or
// custom thresholds.
type Tuning uint8

const (
	// ThroughputOptimized is the communication-lean configuration:
	// ThetaL0 = n/P, ThetaL1 = 1, B = ThetaL0. Skew tolerance
	// (P log P, 3); O(1) communication per search/update.
	ThroughputOptimized Tuning = iota
	// SkewResistant tolerates arbitrary adversarial skew with batches of
	// Omega(P log^2 P): ThetaL0 = Theta(P), ThetaL1 = Theta(log_B P),
	// B = 16.
	SkewResistant
	// Custom uses the thresholds given in Config verbatim.
	Custom
)

// String names the tuning.
func (t Tuning) String() string {
	switch t {
	case ThroughputOptimized:
		return "throughput-optimized"
	case SkewResistant:
		return "skew-resistant"
	case Custom:
		return "custom"
	default:
		return fmt.Sprintf("Tuning(%d)", uint8(t))
	}
}

// ParseTuning maps a preset name to its Tuning: "throughput" or "skew".
func ParseTuning(name string) (Tuning, error) {
	switch name {
	case "throughput":
		return ThroughputOptimized, nil
	case "skew":
		return SkewResistant, nil
	}
	return 0, fmt.Errorf("unknown tuning %q (throughput, skew)", name)
}

// Config configures a PIM-zd-tree.
type Config struct {
	Dims    uint8
	Machine costmodel.Machine // must be PIM-equipped
	Tuning  Tuning

	// Custom thresholds (used when Tuning == Custom; ignored otherwise).
	ThetaL0 int64
	ThetaL1 int64
	B       int64

	// LeafCap bounds points per leaf (0 = 16).
	LeafCap int

	// CacheBudget bounds the bytes of L0 kept CPU-resident before L0
	// switches to replicated-on-modules mode (0 = half the machine LLC).
	CacheBudget int64

	// Obs, when non-nil, receives the hierarchical op/phase/round trace
	// and the tree-internals counters (see internal/obs). Nil disables
	// instrumentation at the cost of one pointer test per annotation.
	Obs *obs.Recorder

	// LoadStats enables cumulative per-module load accounting on the PIM
	// system (pim.System.ModuleLoads) — the whole-run skew heatmap the
	// admin server's /snapshot/modules endpoint serves.
	LoadStats bool

	// Ablation switches (Table 3). All default to the full design.
	DisableLazyCounters bool // propagate counters eagerly on every update
	NaiveZOrder         bool // bit-at-a-time Morton keys on the host
	DisableL1Anchor     bool // compute l2 directly on PIM cores in kNN
	DisableDirectAPI    bool // model the original SDK per-transfer overhead
}

func (c *Config) fill() {
	if c.Dims < 2 || c.Dims > geom.MaxDims {
		panic(fmt.Sprintf("core: unsupported dimensionality %d", c.Dims))
	}
	if c.Machine.PIMModules <= 0 {
		panic("core: machine has no PIM modules")
	}
	if c.LeafCap == 0 {
		c.LeafCap = 16
	}
	if c.CacheBudget == 0 {
		c.CacheBudget = c.Machine.LLCBytes / 2
	}
}

// layerNew marks freshly created nodes whose layer has not been assigned
// yet; the layout pass does not count their first assignment as a
// promotion or demotion.
const layerNew Layer = 0xFF

// Node is one logical zd-tree node. Leaves have Left == nil.
//
// A node keeps only what it cannot derive: 96 bytes, a Go size class, with
// the one-byte fields packed behind the cell corner. Its box is the z-order
// prefix cell of Key and PrefixLen, kept as the low corner (the high corner
// is tabulated per prefix length: Tree.cell), and a leaf's keys are the
// Morton codes of the points in its lanes. Host bytes are not modeled
// bytes — the model prices nodes and leaves by the declared constants
// (nodeBytes, leafBytesOf), not by this struct.
type Node struct {
	Left, Right *Node
	Key         uint64 // representative key (a leaf's: that of point 0)

	lo        [geom.MaxDims]uint32 // low corner of the prefix cell
	PrefixLen uint8
	Layer     Layer

	// dirty marks structural modification since the last relayout, so the
	// layout pass only charges movement for chunks that actually changed.
	dirty bool
	dims  uint8 // the tree's dimensionality, for point

	// Subtree-size counters (§3.4): Size is the exact count known to the
	// master copy (masters lie on every update path, so they stay exact at
	// zero extra traffic); SC is the lazily-synchronized global snapshot
	// all replicas see, and Size−SC the drift accumulated since the last
	// snapshot sync. Lemma 3.1: T/2 <= SC <= 2T.
	Size int64
	SC   int64

	Chunk *Chunk // meta-node containing this node (nil for L0 nodes)

	// Leaf payload: the leaf's Size points in key order, stored once,
	// dim-major: lanes[d*Size+i] is coordinate d of point i. The fused
	// leaf kernels (kernels.go) stream these contiguous lanes; a
	// geom.Point is materialised (point) only where an API hands one out,
	// and a key (leafKey) only where an order is needed.
	lanes []uint32
}

// IsLeaf reports whether n is a leaf.
func (n *Node) IsLeaf() bool { return n.Left == nil }

// point materialises point i of leaf n from its lanes.
func (n *Node) point(i int) geom.Point {
	m := int(n.Size)
	p := geom.Point{Dims: n.dims}
	for d := range int(p.Dims) {
		p.Coords[d] = n.lanes[d*m+i]
	}
	return p
}

// leafKey returns the Morton key of point i of leaf n.
func (n *Node) leafKey(i int) uint64 {
	return morton.EncodePoint(n.point(i))
}

// Pts yields a leaf's points with their indexes, in key order (nothing for
// an internal node): for i, p := range n.Pts.
func (n *Node) Pts(yield func(int, geom.Point) bool) {
	if !n.IsLeaf() {
		return
	}
	for i := range int(n.Size) {
		if !yield(i, n.point(i)) {
			return
		}
	}
}

// Chunk is a meta-node (§3.2): a connected group of same-layer nodes
// placed together on one PIM module.
type Chunk struct {
	ID     uint64
	Module int
	Layer  Layer
	Root   *Node

	// Structure statistics maintained by layout passes. Bytes is the full
	// master footprint (structure plus leaf payloads); StructBytes is the
	// routing structure alone — what a pull ships (§3.3 fetches "only the
	// master storage", and the CPU reads payloads per visited leaf).
	NodeCount   int
	Bytes       int64
	StructBytes int64
	Dense       bool // practical chunking mode (§6): >= B/4 nodes
	Depth       int  // meta-depth below the L0 border (0 = topmost)

	Parent   *Chunk
	Children []*Chunk

	// migrated marks a chunk whose data genuinely changed module this
	// layout pass (overload rehoming), so the diff charges a full move.
	migrated bool

	// rank is the position of ID among the layout's distinct chunk IDs
	// (relayout assigns it), so ascending rank is ascending ID and chunks
	// that share an ID share a rank: a dense key the frontier grouping
	// counts on (group.go).
	rank uint32
}

// Tree is a PIM-zd-tree.
type Tree struct {
	cfg  Config
	sys  *pim.System
	root *Node

	thetaL0, thetaL1, chunkB int64
	l1Window                 int64 // L1 counter window (deltaWindow), set with the thresholds
	thetaBaseN               int64 // lazily re-based n for threshold stability
	bootstrapped             bool  // initial layout done (placement may inherit)
	rehomeThreshold          int64 // per-module footprint above which chunks rehome

	keyBits uint // bits in a key: morton.KeyBits(Dims), fixed at New

	// cellMasks[l] holds the coordinate bits a prefix of l key bits leaves
	// free (morton.PrefixMask), for l = 0..keyBits (at most 64): a node's
	// cell is [lo, lo|cellMasks[PrefixLen]]. Built at New.
	cellMasks [65][geom.MaxDims]uint32

	l0OnModules bool  // L0 replicated on modules instead of the CPU cache
	l0Count     int64 // number of L0 nodes
	l0Bytes     int64

	chunks map[uint64]*Chunk
	ranks  int // distinct chunk IDs: Chunk.rank < ranks

	// epoch counts applied update batches for the serving engine's epoch
	// fence (see epoch.go). Written only at update boundaries, read from
	// any goroutine.
	epoch atomic.Uint64

	// Aggregate statistics.
	counterSyncs   int64
	promotions     int64
	demotions      int64
	pulls          int64
	movedChunks    int64
	editedChunks   int64
	moveBytesTotal int64

	// Batch scratch, reused across batches (batch operations on a Tree are
	// externally serialized; concurrent reads never touch these). The
	// Sorter keeps the radix buffers of internal/parallel alive between
	// batches, and the slices absorb the per-round frontier churn of the
	// push-pull loops. What a batch may leave behind is bounded by
	// trimScratch (scratch.go); a bulk build's scratch never lands here.
	idxSorter   parallel.Sorter[uint32] // update batches' (key, index) sort
	grouping    groupScratch
	frontierBuf []entry
	visitBuf    []int64
	nodeBuf     []*Node
	groupBuf    []chunkGroup
	keyBuf      []uint64       // query keys, or an update batch's sorted keys
	resBuf      []SearchResult // a read batch's search results (searchScratch)
	traceBuf    []*Node        // the kNN locate pass's traces (searchScratch)
	idxBuf      []uint32       // an update batch's sorting permutation
	loadBuf     []int
	scratchPeak int // most elements the current batch asked of any buffer above
	scratchHigh int // largest scratchPeak the retained scratch has grown for

	// router is the flat CSR routing scratch behind every push-pull round
	// (see router.go); the remaining buffers back the dense per-module
	// accounting that replaced the old per-batch maps.
	router      waveRouter
	knn         knnScratch // a kNN call's per-batch state (knn.go)
	candW       candWalk   // the multi-wave traversals (waveWalk),
	sphereW     sphereWalk // seated per call
	boxW        boxWalk
	knnFoundBuf [][]knnFound  // stage-A finds, one slot per group of the wave
	found       pointSink     // sphere / box-fetch finds (wave.go)
	workers     []hostScratch // one per host worker (wave.go)
	l0Runs      []l0Run       // expandL0's runs, in query order
	activeBuf   []int
	upStats     updateStats
	moveBuf     []int64

	// Fork-join scratch for the parallel update and layout passes. The
	// freelists hand branch-local accumulators (updateStats arenas, chunk
	// sinks) to forked recursions; the remaining buffers back the
	// block-parallel chunk passes of relayout.
	arenaMu    sync.Mutex
	arenaFree  []*updateStats
	sinkFree   []*chunkSink
	chunkBuild chunkSink
	diffAccs   []diffAcc
	moveLanes  parallel.Lanes
	footBuf    []int64
}

// New builds a PIM-zd-tree over points (may be empty).
func New(cfg Config, points []geom.Point) *Tree {
	cfg.fill()
	machine := cfg.Machine
	t := &Tree{
		cfg:     cfg,
		sys:     pim.NewSystem(machine),
		keyBits: morton.KeyBits(int(cfg.Dims)),
		chunks:  make(map[uint64]*Chunk),
	}
	for l := range t.keyBits + 1 {
		t.cellMasks[l] = morton.PrefixMask(l, cfg.Dims)
	}
	t.sys.DirectAPI = !cfg.DisableDirectAPI
	t.sys.SetRecorder(cfg.Obs)
	if cfg.LoadStats {
		t.sys.EnableModuleLoadStats()
	}
	rec := t.sys.Recorder()
	rec.BeginOp("build")
	if len(points) > 0 {
		t.root = t.bulkBuild(points, "sort", "build-logical")
	}
	t.relayout()
	rec.EndOp()
	return t
}

// System exposes the underlying PIM simulator (for metrics).
func (t *Tree) System() *pim.System { return t.sys }

// Size returns the number of stored points.
func (t *Tree) Size() int {
	if t.root == nil {
		return 0
	}
	return int(t.root.Size)
}

// Dims returns the indexed dimensionality.
func (t *Tree) Dims() uint8 { return t.cfg.Dims }

// P returns the number of PIM modules.
func (t *Tree) P() int { return t.sys.P() }

// Thresholds returns the current layer thresholds and chunking factor.
func (t *Tree) Thresholds() (thetaL0, thetaL1, b int64) {
	return t.thetaL0, t.thetaL1, t.chunkB
}

// batch is a key-sorted view of a batch of points: position i holds key
// keys[i] and point pts[idx[i]]. Sorting permutes 12-byte (key, index)
// pairs and never moves the points; a leaf gathers its payload through idx
// once. A nil idx means pts is already in key order (a leaf's merged
// payload). Equal keys mean equal points, so the tree built over a batch
// does not depend on how the sort ordered them.
type batch struct {
	keys []uint64
	idx  []uint32
	pts  []geom.Point
}

func (b batch) len() int { return len(b.keys) }

// pt returns the point at sorted position i.
func (b batch) pt(i int) geom.Point {
	if b.idx == nil {
		return b.pts[i]
	}
	return b.pts[b.idx[i]]
}

// slice returns the view of sorted positions [lo, hi).
func (b batch) slice(lo, hi int) batch {
	if b.idx == nil {
		return batch{keys: b.keys[lo:hi], pts: b.pts[lo:hi]}
	}
	return batch{keys: b.keys[lo:hi], idx: b.idx[lo:hi], pts: b.pts}
}

// gather writes the batch's coordinates into dst as dim-major lanes:
// dst[d*len+i] is coordinate d of sorted position i.
func (b batch) gather(dst []uint32, dims int) {
	m := b.len()
	for i := range m {
		p := b.pt(i)
		for d := range dims {
			dst[d*m+i] = p.Coords[d]
		}
	}
}

// sortBatch encodes points into keys, sorts the (key, index) pairs through
// s and returns the sorted view over the caller's points, charging the
// z-order encode and the host sort. keys and idx are len(points) scratch
// the view aliases.
func (t *Tree) sortBatch(points []geom.Point, keys []uint64, idx []uint32, s *parallel.Sorter[uint32]) batch {
	if len(points) > math.MaxUint32 {
		panic("core: batch exceeds the 32-bit index range of the batch sort")
	}
	parallel.For(len(points), func(i int) {
		if points[i].Dims != t.cfg.Dims {
			panic(fmt.Sprintf("core: point dims %d != tree dims %d", points[i].Dims, t.cfg.Dims))
		}
		keys[i] = morton.EncodePoint(points[i])
		idx[i] = uint32(i)
	})
	zCost := morton.CostFast(t.cfg.Dims)
	if t.cfg.NaiveZOrder {
		zCost = morton.CostNaive(t.cfg.Dims)
	}
	t.sys.CPUPhase(int64(len(points))*zCost, 0, 0)
	s.SortPairs(keys, idx)
	t.chargeHostSort(len(points))
	return batch{keys: keys, idx: idx, pts: points}
}

// bulkBuild is the one build path — New, an Insert into an empty tree and
// Rebuild all come here: sort the (key, index) pairs, then construct the
// logical tree over the sorted view, each half under the caller's phase
// name (an empty sortPhase opens no spans). Its scratch (24 bytes a point)
// is local, hence garbage when it returns: a built tree keeps nodes and
// leaf payloads, nothing sized by its build.
func (t *Tree) bulkBuild(points []geom.Point, sortPhase, buildPhase string) *Node {
	// New and Insert name the two halves differently in the trace; Rebuild
	// has never opened spans for them.
	rec, spans := t.sys.Recorder(), sortPhase != ""
	if spans {
		rec.BeginPhase(sortPhase)
	}
	var s parallel.Sorter[uint32]
	b := t.sortBatch(points, make([]uint64, len(points)), make([]uint32, len(points)), &s)
	if spans {
		rec.EndPhase()
		rec.BeginPhase(buildPhase)
	}
	root := t.buildLogical(b)
	if spans {
		rec.EndPhase()
	}
	return root
}

// chargeHostSort prices the host-side radix sort and batch preprocessing,
// identically to the baselines' sort pricing (~30 cycles per element).
// Traffic follows the paper's Fig. 7 observation: while the batch and its
// auxiliary structures fit in the L3 cache, only the first streaming pass
// reaches DRAM; batches that overflow the cache pay DRAM traffic on every
// pass.
func (t *Tree) chargeHostSort(n int) {
	t.sys.CPUPhase(int64(n)*30, t.hostBatchTraffic(n, 6), 0)
}

// hostBatchTraffic returns the DRAM bytes of `passes` streaming passes
// over a batch's ~96-byte-per-op working set (payload, keys, traces,
// grouping buffers), accounting for L3 residency.
func (t *Tree) hostBatchTraffic(n int, passes int64) int64 {
	bytes := int64(n) * 96
	if bytes > t.cfg.CacheBudget {
		return bytes * passes
	}
	return bytes
}

// buildLogical constructs the logical subtree over a sorted, non-empty
// batch — the only subtree constructor: builds, edge splits and leaf splits
// all end here.
func (t *Tree) buildLogical(b batch) *Node {
	first, last := b.keys[0], b.keys[b.len()-1]
	if b.len() <= t.cfg.LeafCap || first == last {
		return t.newLeaf(b)
	}
	plen := morton.CommonPrefixLen(first, last, int(t.cfg.Dims))
	bit := t.keyBits - 1 - plen
	split := splitAtBit(b.keys, bit)
	n := &Node{
		Key:       first,
		PrefixLen: uint8(plen),
		Size:      int64(b.len()),
		SC:        int64(b.len()),
		Layer:     layerNew,
	}
	t.setCell(n)
	if b.len() > 4096 {
		parallel.Do(
			func() { n.Left = t.buildLogical(b.slice(0, split)) },
			func() { n.Right = t.buildLogical(b.slice(split, b.len())) },
		)
	} else {
		n.Left = t.buildLogical(b.slice(0, split))
		n.Right = t.buildLogical(b.slice(split, b.len()))
	}
	return n
}

func (t *Tree) newLeaf(b batch) *Node {
	dims := int(t.cfg.Dims)
	n := &Node{
		Key:       b.keys[0],
		PrefixLen: t.leafPrefixLen(b.keys[0], b.keys[b.len()-1]),
		Size:      int64(b.len()),
		SC:        int64(b.len()),
		Layer:     layerNew,
		lanes:     make([]uint32, b.len()*dims),
	}
	b.gather(n.lanes, dims)
	t.setCell(n)
	return n
}

// leafPrefixLen returns the prefix length of a leaf whose sorted keys run
// from first to last: their common prefix, the full key when they are
// equal (a single point, or copies of one).
func (t *Tree) leafPrefixLen(first, last uint64) uint8 {
	return uint8(morton.CommonPrefixLen(first, last, int(t.cfg.Dims)))
}

// setCell derives n's cell from its Key and PrefixLen: the low corner is
// the decoded key with the prefix's free bits cleared.
func (t *Tree) setCell(n *Node) {
	p := morton.DecodePoint(n.Key, t.cfg.Dims)
	m := &t.cellMasks[n.PrefixLen]
	for d := range n.lo {
		n.lo[d] = p.Coords[d] &^ m[d]
	}
	n.dims = t.cfg.Dims
}

// cell returns n's box, the prefix cell
// morton.PrefixBox(n.Key, n.PrefixLen, dims): the stored low corner and,
// one OR per dimension above it, the high corner.
func (t *Tree) cell(n *Node) geom.Box {
	m := &t.cellMasks[n.PrefixLen]
	b := geom.Box{Lo: geom.Point{Coords: n.lo, Dims: n.dims}, Hi: geom.Point{Dims: n.dims}}
	for d := range m {
		b.Hi.Coords[d] = n.lo[d] | m[d]
	}
	return b
}

// splitAtBit returns the index of the first key with the given bit set;
// keys must be sorted.
func splitAtBit(keys []uint64, bit uint) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if morton.BitAt(keys[mid], bit) == 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// sharesPrefix reports whether key matches n's z-order prefix.
func (t *Tree) sharesPrefix(key uint64, n *Node) bool {
	if n.PrefixLen == 0 {
		return true
	}
	return (key^n.Key)>>(t.keyBits-uint(n.PrefixLen)) == 0
}

// splitBit returns the key bit an internal node routes on.
func (t *Tree) splitBit(n *Node) uint {
	return t.keyBits - 1 - uint(n.PrefixLen)
}

// leafBytes returns the modeled size of a leaf's payload.
func leafBytesOf(n *Node) int64 {
	return leafHeaderBytes + n.Size*pointBytes
}

// nodeFootprint returns the modeled bytes of one node (leaf or internal).
func nodeFootprint(n *Node) int64 {
	if n.IsLeaf() {
		return leafBytesOf(n)
	}
	return nodeBytes
}

// Points returns all points in key order (tests and examples).
func (t *Tree) Points() []geom.Point {
	out := make([]geom.Point, 0, t.Size())
	var rec func(n *Node)
	rec = func(n *Node) {
		if n == nil {
			return
		}
		if n.IsLeaf() {
			for _, p := range n.Pts {
				out = append(out, p)
			}
			return
		}
		rec(n.Left)
		rec(n.Right)
	}
	rec(t.root)
	return out
}

// Stats summarizes structural and activity counters.
type Stats struct {
	Points       int
	L0Nodes      int64
	L1Chunks     int
	L2Chunks     int
	L0OnModules  bool
	CounterSyncs int64
	Promotions   int64
	Demotions    int64
	Pulls        int64
	MovedChunks  int64 // chunks shipped in full by layout passes
	EditedChunks int64 // chunks updated in place (delta messages only)
	MoveBytes    int64 // total layout movement bytes
	StoredTotal  int64 // modeled bytes across modules
	StoredMax    int64 // busiest module
}

// Stats returns a snapshot of the tree's structural statistics.
func (t *Tree) Stats() Stats {
	s := Stats{
		Points:       t.Size(),
		L0Nodes:      t.l0Count,
		L0OnModules:  t.l0OnModules,
		CounterSyncs: t.counterSyncs,
		Promotions:   t.promotions,
		Demotions:    t.demotions,
		Pulls:        t.pulls,
		MovedChunks:  t.movedChunks,
		EditedChunks: t.editedChunks,
		MoveBytes:    t.moveBytesTotal,
	}
	for _, c := range t.chunks {
		if c.Layer == L1 {
			s.L1Chunks++
		} else {
			s.L2Chunks++
		}
	}
	s.StoredTotal, s.StoredMax = t.sys.StoredBytesTotal()
	return s
}
