package core

import (
	"math"
	"sort"

	"pimzdtree/internal/costmodel"
	"pimzdtree/internal/geom"
	"pimzdtree/internal/parallel"
)

// Neighbor is one kNN result; Dist is the squared l2 distance.
type Neighbor struct {
	Point geom.Point
	Dist  uint64
}

// knnMsgBytes is the modeled per-query message for kNN waves (key, id,
// current bound).
const knnMsgBytes = 24

// pimDistCost models the PIM-core cycles of one point-distance evaluation:
// l1 needs only adds and compares, while l2 pays the 32-cycle multiplies
// that motivate the paper's coarse/fine split (§6).
func pimDistCost(metric geom.Metric, dims uint8) int64 {
	if metric == geom.L2 {
		return int64(dims) * (costmodel.WorkMulPIM + 2)
	}
	return int64(dims) * 3
}

// KNN returns the k nearest neighbors (exact, l2 metric) of each query,
// each sorted by increasing distance. k clamps to the stored point count;
// an empty tree yields empty neighbor lists.
func (t *Tree) KNN(queries []geom.Point, k int) [][]Neighbor {
	return t.knnWithMetric(queries, k, geom.L2, nil)
}

// KNNWithin answers kNN (l2) with a per-query inclusive cap on the
// candidate sphere: only neighbors with Dist <= maxDist[i] are returned,
// and every stored point within the cap that belongs to the true top-k
// is guaranteed present (fewer than k results means nothing else lies
// within the cap). Callers that already hold k candidates at distance b
// ship b as the cap so the tree fetches only potential improvements —
// without it, a query far from this tree's key region derives its sphere
// from far-away stage-A candidates and stage-B degenerates into a scan.
// The cross-shard fan-out is the motivating caller.
func (t *Tree) KNNWithin(queries []geom.Point, k int, maxDist []uint64) [][]Neighbor {
	return t.knnWithMetric(queries, k, geom.L2, maxDist)
}

// KNNWithMetric answers exact kNN under the given fine metric (distances
// are squared for L2, per geom.Metric.Dist). It implements Alg. 3: a
// traced search locates per query the lowest node with SC >= 2k (so
// Lemma 3.1 guarantees at least k real points below it); a push-pull
// descent collects k candidates under the PIM-cheap coarse metric; the CPU
// derives the candidate sphere; a second push-pull descent from the lowest
// trace node enclosing the sphere fetches everything inside it; and the
// CPU filters exactly.
//
// The §6 anchoring generalizes to any fine metric bounded by the l1 norm:
// the PIM side always filters under l1 (adds and compares only) with the
// bound inflated by the metric's conversion factor, and the host applies
// the exact fine metric to the survivors.
func (t *Tree) KNNWithMetric(queries []geom.Point, k int, fine geom.Metric) [][]Neighbor {
	return t.knnWithMetric(queries, k, fine, nil)
}

// knnWithMetric is the shared Alg. 3 implementation; caps, when non-nil,
// bounds each query's sphere radius inclusively (see KNNWithin). The
// per-batch state lives in the Tree's kNN scratch (knnScratch); the answer
// is the one thing the call allocates: the lists, capped sub-slices of one
// backing array.
func (t *Tree) knnWithMetric(queries []geom.Point, k int, fine geom.Metric, caps []uint64) [][]Neighbor {
	if t.root == nil || k <= 0 {
		return make([][]Neighbor, len(queries))
	}
	k = min(k, t.Size()) // no query has more neighbors than stored points
	rec := t.sys.Recorder()
	rec.BeginOp("knn")
	defer rec.EndOp()
	defer t.trimScratch()
	coarse := geom.L1
	if t.cfg.DisableL1Anchor {
		coarse = fine
	}
	ks := t.knnBatch(queries, k, fine, coarse, caps)
	defer ks.release()
	rec.BeginPhase("locate")
	keys := t.encodeKeys(queries)
	ks.res = t.searchKeys(keys, searchOpts{kTrack: 2 * k, trace: true})
	rec.EndPhase()

	// --- Stage A: k coarse candidates from N_q1 (Alg. 3 step 2) ---
	for i, r := range ks.res {
		ks.starts[i] = t.root
		if r.LowK != nil {
			ks.starts[i] = r.LowK
		}
	}
	// Shipped caps seed the stage-A coarse bound (converted to the coarse
	// metric, +1 so equality stays admissible): a capped query prunes its
	// descent to the cap ball from the first wave instead of expanding
	// unboundedly until k candidates accumulate — the difference between
	// O(ball) and O(tree) for queries far from this tree's key region.
	if caps != nil {
		sd := math.Sqrt(float64(t.cfg.Dims))
		for i, b := range caps {
			if b == math.MaxUint64 {
				continue
			}
			var s uint64
			switch {
			case coarse == fine:
				s = b
			case fine == geom.L2:
				s = uint64(math.Ceil(math.Sqrt(float64(b)) * sd))
			case fine == geom.LInf:
				s = b * uint64(t.cfg.Dims)
			default:
				s = b
			}
			if s != math.MaxUint64 {
				s++
			}
			ks.states[i].bound = s
		}
	}
	rec.BeginPhase("stage-A-candidates")
	t.collectKCandidates(ks)
	rec.EndPhase()
	if t.restartShortQueries(ks) {
		rec.BeginPhase("stage-A-restart")
		t.collectKCandidates(ks)
		rec.EndPhase()
	}

	// --- CPU: derive the candidate spheres (step 3 setup) ---
	rec.BeginPhase("derive-sphere")
	if len(queries) < hostForkMin {
		t.deriveSpheres(0, 0, len(queries))
	} else {
		parallel.ForDynamic(len(queries), t.deriveSpheres)
	}
	var nCands int64
	for _, cs := range ks.states {
		nCands += int64(len(cs.best))
	}
	t.sys.CPUPhase(nCands*int64(t.cfg.Dims+4), 0, 0)
	rec.EndPhase()

	// --- Stage B: fetch the sphere contents (steps 3-4) ---
	rec.BeginPhase("stage-B-sphere")
	ks.sphere = t.collectSphere(queries, ks.starts, ks.coarseBound, coarse)
	rec.EndPhase()

	// --- Step 5: exact CPU filter ---
	rec.BeginPhase("final-filter")
	t.hostWorkers()
	if len(queries) < hostForkMin {
		t.finalFilter(0, 0, len(queries))
	} else {
		parallel.ForDynamic(len(queries), t.finalFilter)
	}
	var nSphere int64
	for _, pts := range ks.sphere {
		nSphere += int64(len(pts))
	}
	t.sys.CPUPhase(nSphere*int64(t.cfg.Dims+2)+int64(len(queries))*int64(k)*costmodel.WorkHeapOp, 0, 0)
	rec.EndPhase()
	return ks.answer()
}

// knnScratch is one kNN call's per-batch state. It is Tree scratch: its
// buffers grow to the largest batch (the candidate and survivor arrays
// times k) and trimScratch releases them like the other batch buffers. The
// per-query host loops run as Tree methods over it, so a batch that stays
// on the caller builds no closure.
type knnScratch struct {
	// The call in hand (dropped by release).
	queries      []geom.Point
	k            int
	fine, coarse geom.Metric
	caps         []uint64
	res          []SearchResult // the locate pass's results and traces
	sphere       [][]geom.Point // stage-B finds per query (the sink's views)

	states      []candState // stage-A candidate sets, one per query
	best        []Neighbor  // their backing, k+1 per query
	bounds      []uint64    // stage-A bounds, snapshotted per wave
	starts      []*Node     // stage-A starts (N_q1), then stage-B starts (N_q2)
	coarseBound []uint64    // stage-B coarse-metric radius per query
	results     []Neighbor  // final-filter survivors, k per query
	lens        []int       // how many of its k each query filled
}

// knnBatch seats one kNN call of len(queries) queries in the Tree's kNN
// scratch, with every candidate set empty and unbounded.
func (t *Tree) knnBatch(queries []geom.Point, k int, fine, coarse geom.Metric, caps []uint64) *knnScratch {
	n := len(queries)
	ks := &t.knn
	ks.queries, ks.k, ks.fine, ks.coarse, ks.caps = queries, k, fine, coarse, caps
	ks.states = sized(ks.states, n)
	ks.best = sized(ks.best, n*(k+1))
	ks.bounds = sized(ks.bounds, n)
	ks.starts = sized(ks.starts, n)
	ks.coarseBound = sized(ks.coarseBound, n)
	ks.results = sized(ks.results, n*k)
	ks.lens = sized(ks.lens, n)
	// add appends before it cuts back to k, hence k+1 apiece.
	for i := range ks.states {
		ks.states[i] = candState{best: ks.best[i*(k+1) : i*(k+1) : (i+1)*(k+1)], bound: math.MaxUint64}
	}
	return ks
}

// restartShortQueries readies stage A's rerun from the root for the
// queries it left short: fewer than k distinct candidates from a start
// below the root, and no cap to bound their spheres. Lemma 3.1 counts
// stored instances, so a start with >= 2k of them (a leaf of copies of
// one multi-point) may hold fewer than k distinct points; the root holds
// k unless the whole tree does not. A short query keeps its candidates
// and starts over at the root, every other query gets no start (its
// state stands); deriveSpheres sets every query's stage-B start after.
// Reports whether any query is short. Stored sets without repeated points
// never have one.
func (t *Tree) restartShortQueries(ks *knnScratch) bool {
	short := false
	for i := range ks.states {
		if len(ks.states[i].best) < ks.k && ks.starts[i] != t.root && (ks.caps == nil || ks.caps[i] == math.MaxUint64) {
			ks.starts[i], short = t.root, true
		} else {
			ks.starts[i] = nil
		}
	}
	return short
}

// deriveSpheres derives the candidate spheres of queries [lo, hi). Exact
// fine-metric distances on the <=k candidates; rF is the k-th best; the
// stage-B pruning bound follows from the metric's relation to the coarse
// norm:
//
//	fine = l2 (squared): ||x||1 <= sqrt(D)*||x||2,
//	fine = linf:         ||x||1 <= D*||x||inf,
//	fine = l1:           identity,
//
// margin being the per-axis half-width that contains the fine-metric ball
// of radius rF, which picks the stage-B start (N_q2): the lowest trace node
// enclosing it. Every query is independent of the others.
func (t *Tree) deriveSpheres(_, lo, hi int) {
	ks := &t.knn
	d := float64(t.cfg.Dims)
	for i := lo; i < hi; i++ {
		q, c := ks.queries[i], ks.states[i].best
		for j := range c {
			c[j].Dist = ks.fine.Dist(c[j].Point, q)
		}
		// Only the k-th smallest distance matters (tie-independent), so an
		// expected-linear quickselect replaces a full sort.
		selectSmallest(c, ks.k, lessByDist)
		var rF uint64
		for _, nb := range c {
			rF = max(rF, nb.Dist)
		}
		// Fewer than k candidates means stage A's start subtree holds
		// fewer than k distinct points (its stored instances may repeat a
		// multi-point), so the true k-th neighbor may lie anywhere: the
		// sphere is unbounded. A shipped cap bounds it: the caller promises
		// it needs no neighbor beyond caps[i] (inclusive), so a larger
		// radius shrinks to the cap — and a seeded stage A, which may
		// return fewer than k candidates (nothing else within the cap ball
		// of its start subtree), gets the cap itself.
		if len(c) < ks.k {
			rF = math.MaxUint64
		}
		if ks.caps != nil && ks.caps[i] < rF {
			rF = ks.caps[i]
		}
		if rF == math.MaxUint64 {
			ks.coarseBound[i], ks.starts[i] = math.MaxUint64, t.root
			continue
		}
		margin := rF
		ks.coarseBound[i] = rF
		switch {
		case ks.fine == geom.L2:
			r := math.Sqrt(float64(rF))
			margin = uint64(math.Ceil(r))
			if ks.coarse == geom.L1 {
				ks.coarseBound[i] = uint64(math.Ceil(r * math.Sqrt(d)))
			}
		case ks.fine == geom.LInf && ks.coarse == geom.L1:
			ks.coarseBound[i] = rF * uint64(d)
		}
		ks.starts[i] = t.lowestEnclosing(ks.res[i].Trace, q, margin)
	}
}

// finalFilter runs the exact CPU filter of queries [lo, hi) as worker. A
// query's candidates land in its worker's flat arena, reused query to
// query, and finalCut keeps the first k distinct values of the (Dist,
// Point) order, which do not depend on the order the sphere arrived in.
// The survivors go to the query's k slots of ks.results.
func (t *Tree) finalFilter(worker, lo, hi int) {
	ks, w := &t.knn, &t.workers[worker]
	arena := w.arena
	for i := lo; i < hi; i++ {
		q := ks.queries[i]
		arena = arena[:0]
		for _, p := range ks.sphere[i] {
			arena = append(arena, Neighbor{Point: p, Dist: ks.fine.Dist(p, q)})
		}
		// Candidates from stage A are sphere members too; merging them
		// costs nothing extra and covers the k < |tree| < sphere edge.
		cands := ks.states[i].best
		arena = append(arena, cands...)
		var ns []Neighbor
		ns, w.dists = finalCut(arena, ks.k, ks.k+len(cands), w.dists)
		if ks.caps != nil {
			// Stage-A candidates may lie beyond the shipped cap; they were
			// only radius seeds, not results.
			for len(ns) > 0 && ns[len(ns)-1].Dist > ks.caps[i] {
				ns = ns[:len(ns)-1]
			}
		}
		ks.lens[i] = copy(ks.results[i*ks.k:(i+1)*ks.k], ns)
	}
	w.arena = arena
}

// answer copies the final filter's survivors into the call's result: one
// backing array, each query's list a capped sub-slice of it, so a caller
// that appends to one list copies it instead of overwriting its neighbor.
func (ks *knnScratch) answer() [][]Neighbor {
	total := 0
	for _, n := range ks.lens {
		total += n
	}
	out := make([][]Neighbor, len(ks.lens))
	backing := make([]Neighbor, total)
	off := 0
	for i, n := range ks.lens {
		copy(backing[off:off+n], ks.results[i*ks.k:])
		out[i] = backing[off : off+n : off+n]
		off += n
	}
	return out
}

// release ends the call: the scratch keeps no reference to the caller's
// queries or caps, nor to nodes through the traces or starts.
func (ks *knnScratch) release() {
	for i := range ks.res {
		clear(ks.res[i].Trace)
	}
	clear(ks.res)
	clear(ks.starts)
	ks.queries, ks.caps, ks.res, ks.sphere = nil, nil, nil, nil
}

// trim applies parallel.Keep to the buffers for a batch peak of peak
// queries (times the last call's k+1 for the per-neighbor arrays); the
// candidate sets' views are dropped with them.
func (ks *knnScratch) trim(peak int) {
	clear(ks.states[:cap(ks.states)])
	ks.states = parallel.Keep(ks.states, peak)
	ks.best = parallel.Keep(ks.best, peak*(ks.k+1))
	ks.bounds = parallel.Keep(ks.bounds, peak)
	ks.starts = parallel.Keep(ks.starts, peak)
	ks.coarseBound = parallel.Keep(ks.coarseBound, peak)
	ks.results = parallel.Keep(ks.results, peak*(ks.k+1))
	ks.lens = parallel.Keep(ks.lens, peak)
}

func lessPoint(a, b geom.Point) bool {
	for d := uint8(0); d < a.Dims; d++ {
		if a.Coords[d] != b.Coords[d] {
			return a.Coords[d] < b.Coords[d]
		}
	}
	return false
}

func dedupeNeighbors(ns []Neighbor) []Neighbor {
	out := ns[:0]
	for i, n := range ns {
		if i > 0 && n.Dist == ns[i-1].Dist && n.Point.Equal(ns[i-1].Point) {
			continue
		}
		out = append(out, n)
	}
	return out
}

// lowestEnclosing returns the lowest trace node whose box contains the
// axis-aligned margin around q (which contains the l2 ball of that
// radius); defaults to the root.
func (t *Tree) lowestEnclosing(trace []*Node, q geom.Point, margin uint64) *Node {
	for i := len(trace) - 1; i >= 0; i-- {
		n := trace[i]
		if ballInBox(q, margin, t.cell(n)) {
			return n
		}
	}
	return t.root
}

// ballInBox reports whether the l2 ball of the given radius around q lies
// inside box (using the conservative per-axis margin test).
func ballInBox(q geom.Point, radius uint64, box geom.Box) bool {
	for d := uint8(0); d < q.Dims; d++ {
		c := uint64(q.Coords[d])
		if c < uint64(box.Lo.Coords[d])+radius {
			return false
		}
		if c+radius > uint64(box.Hi.Coords[d]) {
			return false
		}
	}
	return true
}

// candState tracks one query's stage-A candidate set: a bounded list of
// the best k coarse-metric candidates seen so far.
type candState struct {
	best  []Neighbor // sorted ascending by coarse distance, len <= k
	bound uint64     // k-th best coarse distance (MaxUint64 until full)
}

// reset prepares a reused candState for one chunk scan, seeding it with
// the query's shipped bound.
func (cs *candState) reset(bound uint64) {
	cs.best = cs.best[:0]
	cs.bound = math.MaxUint64
	if bound != math.MaxUint64 {
		cs.bound = bound
	}
}

// add offers one scored point. A point equal to one already held is
// skipped (a stored multi-point is one candidate, not several), so the set
// holds distinct points and its k-th distance bounds the k-th distinct
// neighbor.
func (cs *candState) add(p geom.Point, d uint64, k int) {
	if d >= cs.bound {
		return
	}
	i := sort.Search(len(cs.best), func(i int) bool { return cs.best[i].Dist > d })
	// An equal point has the same distance, so it sits just before i.
	for j := i - 1; j >= 0 && cs.best[j].Dist == d; j-- {
		if cs.best[j].Point.Equal(p) {
			return
		}
	}
	cs.best = append(cs.best, Neighbor{})
	copy(cs.best[i+1:], cs.best[i:])
	cs.best[i] = Neighbor{Point: p, Dist: d}
	if len(cs.best) > k {
		cs.best = cs.best[:k]
	}
	if len(cs.best) == k {
		cs.bound = cs.best[k-1].Dist
	}
}

// collectKCandidates runs the stage-A push-pull descent: starting at each
// query's N_q1 (ks.starts), BSP waves walk the chunk DAG, each chunk
// contributing its best (at most k) coarse candidates and its
// still-promising exits, into ks.states. A seeded state's bound (see
// knnWithMetric) pre-tightens the query's coarse bound (exclusive) before
// anything is found, so capped queries never expand nodes beyond their
// shipped ball.
func (t *Tree) collectKCandidates(ks *knnScratch) {
	t.candW = candWalk{t: t}
	// Expand the CPU-resident L0 prefix of each start node.
	frontier := t.expandL0(len(ks.queries), &t.candW)
	// Bounds are snapshotted per wave: modules prune against the bound
	// shipped with the query; the CPU re-tightens between waves.
	for i := range ks.states {
		ks.bounds[i] = ks.states[i].bound
	}
	t.runPushPullWaves(frontier, knnMsgBytes, &t.candW)
}

// candWalk is stage A's waveWalk, over the Tree's kNN scratch. Candidates
// land in per-group slots (indexed by the wave's gi) and merge in gi
// order, so the fold into the per-query sets — and with it every bound,
// and every downstream modeled cost — is identical no matter how the
// groups were scheduled across modules and host workers.
type candWalk struct{ t *Tree }

func (cw *candWalk) expandL0(_ int, qi int32, frontier *[]entry) int64 {
	t, ks := cw.t, &cw.t.knn
	if ks.starts[qi] == nil {
		return 0 // not rerun (see restartShortQueries)
	}
	return t.expandL0KNN(qi, ks.starts[qi], ks.queries[qi], &ks.states[qi], ks.k, ks.coarse, frontier)
}

func (cw *candWalk) prepWave(nGroups int) { growSlots(&cw.t.knnFoundBuf, nGroups) }

func (cw *candWalk) scan(c *Chunk, e entry, cpuSide bool, worker, gi int, exits *[]entry) (int64, int64) {
	t, ks := cw.t, &cw.t.knn
	local := &t.workers[worker].cand
	local.reset(ks.bounds[e.qi])
	work, outBytes := t.knnChunkScan(c, e, ks.queries[e.qi], local, ks.k, ks.coarse, exits, &t.knnFoundBuf[gi])
	if cpuSide {
		// Host multiplies are pipelined; rebate the PIM premium.
		work /= 4
	}
	return work, outBytes
}

// afterWave is the CPU merge: it folds this wave's candidates into the
// per-query sets and re-prunes the exits against the tightened bounds.
func (cw *candWalk) afterWave(exits []entry) []entry {
	t, ks := cw.t, &cw.t.knn
	var nFound int64
	for _, fs := range t.knnFoundBuf {
		nFound += int64(len(fs))
	}
	if p := forkWidth(len(ks.queries)); p == 1 {
		t.foldFound(0, 0, len(ks.queries))
	} else {
		parallel.BlocksN(p, len(ks.queries), t.foldFound)
	}
	next := exits[:0]
	for _, e := range exits {
		if t.cell(e.node).MinDistTo(ks.queries[e.qi], ks.coarse) <= ks.bounds[e.qi] {
			next = append(next, e)
		}
	}
	t.sys.CPUPhase(nFound*costmodel.WorkHeapOp+int64(len(exits))*4, 0, 0)
	return next
}

// foldFound folds the wave's stage-A finds of queries [lo, hi) into their
// candidate sets and snapshots their bounds. Each worker owns a contiguous
// range of queries and walks the slots in gi order, like the serial fold.
func (t *Tree) foldFound(_, lo, hi int) {
	ks := &t.knn
	for _, fs := range t.knnFoundBuf {
		for _, f := range fs {
			if qi := int(f.qi); lo <= qi && qi < hi {
				ks.states[qi].add(f.p, f.d, ks.k)
			}
		}
	}
	for i := lo; i < hi; i++ {
		ks.bounds[i] = ks.states[i].bound
	}
}

// expandL0KNN walks the CPU-resident L0 part of a kNN descent, scoring L0
// leaves directly and emitting chunk entries; returns CPU work.
func (t *Tree) expandL0KNN(qi int32, n *Node, q geom.Point, cs *candState, k int, coarse geom.Metric, frontier *[]entry) int64 {
	var work int64
	var rec func(n *Node)
	rec = func(n *Node) {
		work += 4
		if t.cell(n).MinDistTo(q, coarse) > cs.bound {
			return
		}
		if n.Layer != L0 {
			*frontier = append(*frontier, entry{qi: qi, node: n})
			return
		}
		if n.IsLeaf() {
			scanLeafKNN(n, q, coarse, cs, k)
			work += n.Size * (int64(q.Dims) + costmodel.WorkHeapOp)
			return
		}
		// Nearer child first to tighten the bound early.
		a, b := n.Left, n.Right
		if t.cell(b).MinDistTo(q, coarse) < t.cell(a).MinDistTo(q, coarse) {
			a, b = b, a
		}
		rec(a)
		rec(b)
	}
	rec(n)
	return work
}

// knnFound is one candidate discovered during a wave.
type knnFound struct {
	qi int32
	p  geom.Point
	d  uint64
}

// knnChunkScan traverses one chunk for one query on a PIM module: nodes in
// the chunk are pruned against the shipped bound under the coarse metric
// (carried by local, a reset per-worker scratch), leaf points are scored,
// and child-chunk exits within the bound are emitted; the chunk's best
// (at most k) candidates are appended to *found. It returns the module
// work and the bytes sent back.
func (t *Tree) knnChunkScan(c *Chunk, e entry, q geom.Point, local *candState, k int, coarse geom.Metric, exits *[]entry, found *[]knnFound) (work, outBytes int64) {
	var rec func(n *Node)
	rec = func(n *Node) {
		work += 4
		if t.cell(n).MinDistTo(q, coarse) > local.bound {
			return
		}
		if n.Chunk != c {
			*exits = append(*exits, entry{qi: e.qi, node: n})
			outBytes += resultMsgBytes
			return
		}
		if n.IsLeaf() {
			scanLeafKNN(n, q, coarse, local, k)
			work += n.Size * pimDistCost(coarse, q.Dims)
			return
		}
		a, b := n.Left, n.Right
		if t.cell(b).MinDistTo(q, coarse) < t.cell(a).MinDistTo(q, coarse) {
			a, b = b, a
		}
		rec(a)
		rec(b)
	}
	rec(e.node)
	for _, nb := range local.best {
		*found = append(*found, knnFound{qi: e.qi, p: nb.Point, d: nb.Dist})
		outBytes += pointBytes
	}
	return work, outBytes
}

// collectSphere runs the stage-B push-pull descent (Alg. 3 step 4): from
// each query's N_q2, fetch every point within the coarse-metric bound. The
// returned lists are t.found's scratch and die with the next fetch.
func (t *Tree) collectSphere(queries []geom.Point, starts []*Node, bound []uint64, coarse geom.Metric) [][]geom.Point {
	sink := &t.found
	sink.reset()
	sw := &t.sphereW
	*sw = sphereWalk{t: t, queries: queries, starts: starts, bound: bound, coarse: coarse,
		pimCost: pimDistCost(coarse, t.cfg.Dims), base: sink.extend(parallel.Workers())}
	frontier := t.expandL0(len(queries), sw)
	t.runPushPullWaves(frontier, knnMsgBytes, sw)
	*sw = sphereWalk{}
	return sink.gather(len(queries), false)
}

// sphereWalk is the sphere fetch's waveWalk. Several chunks of one wave
// may serve the same query concurrently, so finds go to the sink (t.found)
// by slot — one per worker for the L0 prefix, then one per group of each
// wave, from base on — and regroup by query after the last wave.
type sphereWalk struct {
	t       *Tree
	queries []geom.Point
	starts  []*Node
	bound   []uint64
	coarse  geom.Metric
	pimCost int64 // a distance on a module
	base    int   // the current stage's first sink slot
}

func (sw *sphereWalk) expandL0(worker int, qi int32, frontier *[]entry) int64 {
	sink := &sw.t.found
	work := sw.t.expandL0Sphere(qi, sw.starts[qi], sw.queries[qi], sw.bound[qi], sw.coarse, sink.open(sw.base+worker, worker), frontier)
	sink.close(sw.base+worker, worker)
	return work
}

func (sw *sphereWalk) prepWave(nGroups int) { sw.base = sw.t.found.extend(nGroups) }

func (sw *sphereWalk) scan(c *Chunk, e entry, cpuSide bool, worker, gi int, exits *[]entry) (int64, int64) {
	sink := &sw.t.found
	distCost := sw.pimCost
	if cpuSide {
		distCost = int64(sw.t.cfg.Dims)
	}
	work, outBytes := sw.t.sphereChunkScan(c, e, sw.queries[e.qi], sw.bound[e.qi], sw.coarse, distCost, sink.open(sw.base+gi, worker), exits)
	sink.close(sw.base+gi, worker)
	return work, outBytes
}

func (sw *sphereWalk) afterWave(exits []entry) []entry { return exits }

// expandL0Sphere walks the CPU-resident L0 part of a sphere fetch.
func (t *Tree) expandL0Sphere(qi int32, n *Node, q geom.Point, bound uint64, coarse geom.Metric, found *[]foundPoint, frontier *[]entry) int64 {
	var work int64
	var rec func(n *Node)
	rec = func(n *Node) {
		work += 4
		if t.cell(n).MinDistTo(q, coarse) > bound {
			return
		}
		if n.Layer != L0 {
			*frontier = append(*frontier, entry{qi: qi, node: n})
			return
		}
		if n.IsLeaf() {
			work += n.Size * int64(q.Dims)
			scanLeafSphere(n, q, coarse, bound, func(p geom.Point) {
				*found = append(*found, foundPoint{qi: qi, p: p})
			})
			return
		}
		rec(n.Left)
		rec(n.Right)
	}
	rec(n)
	return work
}

// sphereChunkScan traverses one chunk collecting every point within the
// coarse bound (into *found) and the exits that still intersect the ball.
func (t *Tree) sphereChunkScan(c *Chunk, e entry, q geom.Point, bound uint64, coarse geom.Metric, distCost int64, found *[]foundPoint, exits *[]entry) (work, outBytes int64) {
	addPoint := func(p geom.Point) { *found = append(*found, foundPoint{qi: e.qi, p: p}) }
	var rec func(n *Node)
	rec = func(n *Node) {
		work += 4
		if t.cell(n).MinDistTo(q, coarse) > bound {
			return
		}
		if n.Chunk != c {
			*exits = append(*exits, entry{qi: e.qi, node: n})
			outBytes += resultMsgBytes
			return
		}
		if n.IsLeaf() {
			work += n.Size * distCost
			outBytes += scanLeafSphere(n, q, coarse, bound, addPoint) * pointBytes
			return
		}
		rec(n.Left)
		rec(n.Right)
	}
	rec(e.node)
	return work, outBytes
}
