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
// bounds each query's sphere radius inclusively (see KNNWithin).
func (t *Tree) knnWithMetric(queries []geom.Point, k int, fine geom.Metric, caps []uint64) [][]Neighbor {
	out := make([][]Neighbor, len(queries))
	if t.root == nil || k <= 0 {
		return out
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
	rec.BeginPhase("locate")
	keys := t.encodeKeys(queries)
	res := t.searchKeys(keys, searchOpts{kTrack: 2 * k, trace: true})
	rec.EndPhase()

	// --- Stage A: k coarse candidates from N_q1 (Alg. 3 step 2) ---
	starts := make([]*Node, len(queries))
	for i := range queries {
		if res[i].LowK != nil {
			starts[i] = res[i].LowK
		} else {
			starts[i] = t.root
		}
	}
	// Shipped caps seed the stage-A coarse bound (converted to the coarse
	// metric, +1 so equality stays admissible): a capped query prunes its
	// descent to the cap ball from the first wave instead of expanding
	// unboundedly until k candidates accumulate — the difference between
	// O(ball) and O(tree) for queries far from this tree's key region.
	var seeds []uint64
	if caps != nil {
		seeds = make([]uint64, len(queries))
		sd := math.Sqrt(float64(t.cfg.Dims))
		for i, b := range caps {
			if b == math.MaxUint64 {
				seeds[i] = math.MaxUint64
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
			if s == math.MaxUint64 {
				seeds[i] = s
			} else {
				seeds[i] = s + 1
			}
		}
	}
	rec.BeginPhase("stage-A-candidates")
	cands := t.collectKCandidates(queries, starts, k, coarse, seeds)
	rec.EndPhase()

	// --- CPU: derive the candidate spheres (step 3 setup) ---
	// Exact fine-metric distances on the <=k candidates; rF is the k-th
	// best; the stage-B pruning bound follows from the metric's relation
	// to the coarse norm:
	//   fine = l2 (squared): ||x||1 <= sqrt(D)*||x||2,
	//   fine = linf:         ||x||1 <= D*||x||inf,
	//   fine = l1:           identity,
	// margin being the per-axis half-width that contains the fine-metric
	// ball of radius rF, which picks the stage-B start (N_q2): the lowest
	// trace node enclosing it. Every query is independent of the others.
	rec.BeginPhase("derive-sphere")
	coarseBound := make([]uint64, len(queries))
	startsB := make([]*Node, len(queries))
	d := float64(t.cfg.Dims)
	forQueries(len(queries), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			c := cands[i]
			for j := range c {
				c[j].Dist = fine.Dist(c[j].Point, queries[i])
			}
			// Only the k-th smallest distance matters (tie-independent), so
			// an expected-linear quickselect replaces a full sort.
			selectSmallest(c, k, lessByDist)
			var rF uint64
			for _, nb := range c[:min(k, len(c))] {
				rF = max(rF, nb.Dist)
			}
			// A shipped cap bounds the sphere: the caller promises it needs
			// no neighbor beyond caps[i] (inclusive), so a larger derived
			// radius shrinks to the cap. The reverse edge matters too: a
			// seeded stage A can return fewer than k candidates (nothing
			// else within the cap ball of its start subtree), and then the
			// cap itself — not the incomplete candidates' max — is the only
			// sound radius.
			if caps != nil && (len(c) < k || caps[i] < rF) {
				rF = caps[i]
			}
			margin := rF
			coarseBound[i] = rF
			switch {
			case fine == geom.L2:
				r := math.Sqrt(float64(rF))
				margin = uint64(math.Ceil(r))
				if coarse == geom.L1 {
					coarseBound[i] = uint64(math.Ceil(r * math.Sqrt(d)))
				}
			case fine == geom.LInf && coarse == geom.L1:
				coarseBound[i] = rF * uint64(d)
			}
			startsB[i] = t.lowestEnclosing(res[i].Trace, queries[i], margin)
		}
	})
	var nCands int64
	for _, c := range cands {
		nCands += int64(len(c))
	}
	t.sys.CPUPhase(nCands*int64(t.cfg.Dims+4), 0, 0)
	rec.EndPhase()

	// --- Stage B: fetch the sphere contents (steps 3-4) ---
	rec.BeginPhase("stage-B-sphere")
	sphere := t.collectSphere(queries, startsB, coarseBound, coarse)
	rec.EndPhase()

	// --- Step 5: exact CPU filter ---
	// A query's candidates land in its worker's flat arena, reused query to
	// query; only the k survivors are copied out. Instead of fully sorting
	// every sphere, quickselect under the (Dist, Point) total order cuts
	// the arena to its smallest m = k + |candsA| entries — duplicates can
	// only pair a stage-A candidate with its sphere copy or repeat a stored
	// multi-point, so m is grown (rarely) until the prefix holds k distinct
	// values. The selected prefix is exactly the first m of the full sort,
	// so the output does not depend on the order the sphere arrived in.
	rec.BeginPhase("final-filter")
	ws := t.hostWorkers()
	forQueries(len(queries), func(worker, lo, hi int) {
		arena := ws[worker].arena
		for i := lo; i < hi; i++ {
			arena = arena[:0]
			for _, p := range sphere[i] {
				arena = append(arena, Neighbor{Point: p, Dist: fine.Dist(p, queries[i])})
			}
			// Candidates from stage A are sphere members too; merging them
			// costs nothing extra and covers the k < |tree| < sphere edge.
			arena = append(arena, cands[i]...)
			ns := selectFinalNeighbors(arena, k, k+len(cands[i]))
			if caps != nil {
				// Stage-A candidates may lie beyond the shipped cap; they
				// were only radius seeds, not results.
				for len(ns) > 0 && ns[len(ns)-1].Dist > caps[i] {
					ns = ns[:len(ns)-1]
				}
			}
			out[i] = make([]Neighbor, len(ns))
			copy(out[i], ns)
		}
		ws[worker].arena = arena
	})
	var nSphere int64
	for _, pts := range sphere {
		nSphere += int64(len(pts))
	}
	t.sys.CPUPhase(nSphere*int64(t.cfg.Dims+2)+int64(len(queries))*int64(k)*costmodel.WorkHeapOp, 0, 0)
	rec.EndPhase()
	return out
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
		if ballInBox(q, margin, n.Box) {
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

func (cs *candState) add(p geom.Point, d uint64, k int) {
	if d >= cs.bound {
		return
	}
	i := sort.Search(len(cs.best), func(i int) bool { return cs.best[i].Dist > d })
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
// query's N_q1, BSP waves walk the chunk DAG, each chunk contributing its
// best (at most k) coarse candidates and its still-promising exits.
// seeds, when non-nil, pre-tightens each query's coarse bound (exclusive)
// before anything is found, so capped queries never expand nodes beyond
// their shipped ball.
func (t *Tree) collectKCandidates(queries []geom.Point, starts []*Node, k int, coarse geom.Metric, seeds []uint64) [][]Neighbor {
	states := make([]candState, len(queries))
	// One backing array for every query's set; add appends before it cuts
	// back to k, hence k+1 apiece.
	best := make([]Neighbor, len(queries)*(k+1))
	for i := range states {
		states[i] = candState{best: best[i*(k+1) : i*(k+1) : (i+1)*(k+1)], bound: math.MaxUint64}
		if seeds != nil {
			states[i].bound = seeds[i]
		}
	}
	// Expand the CPU-resident L0 prefix of each start node.
	frontier := t.expandL0(len(queries), func(_ int, qi int32, frontier *[]entry) int64 {
		return t.expandL0KNN(qi, starts[qi], queries[qi], &states[qi], k, coarse, frontier)
	})

	// Bounds are snapshotted per wave: modules prune against the bound
	// shipped with the query; the CPU re-tightens between waves.
	bounds := make([]uint64, len(states))
	for i := range states {
		bounds[i] = states[i].bound
	}

	// Candidates land in per-group slots (indexed by the wave's gi) and
	// merge in gi order, so the fold into the per-query sets — and with it
	// every bound, and every downstream modeled cost — is identical no
	// matter how the groups were scheduled across modules and host workers.
	ws := t.hostWorkers()
	prep := func(nGroups int) { growSlots(&t.knnFoundBuf, nGroups) }
	scan := func(c *Chunk, e entry, cpuSide bool, worker, gi int, exits *[]entry) (int64, int64) {
		local := &ws[worker].cand
		local.reset(bounds[e.qi])
		work, outBytes := t.knnChunkScan(c, e, queries[e.qi], local, k, coarse, exits, &t.knnFoundBuf[gi])
		if cpuSide {
			// Host multiplies are pipelined; rebate the PIM premium.
			work /= 4
		}
		return work, outBytes
	}
	afterWave := func(exits []entry) []entry {
		// CPU merge: fold this wave's candidates into the per-query sets
		// and re-prune the exits against the tightened bounds. Each worker
		// owns a contiguous range of queries and folds that range's finds,
		// walking the slots in gi order like the serial fold does.
		var nFound int64
		for _, fs := range t.knnFoundBuf {
			nFound += int64(len(fs))
		}
		parallel.BlocksN(forkWidth(len(queries)), len(queries), func(_, lo, hi int) {
			for _, fs := range t.knnFoundBuf {
				for _, f := range fs {
					if qi := int(f.qi); lo <= qi && qi < hi {
						states[qi].add(f.p, f.d, k)
					}
				}
			}
			for i := lo; i < hi; i++ {
				bounds[i] = states[i].bound
			}
		})
		next := exits[:0]
		for _, e := range exits {
			if e.node.Box.MinDistTo(queries[e.qi], coarse) <= bounds[e.qi] {
				next = append(next, e)
			}
		}
		t.sys.CPUPhase(nFound*costmodel.WorkHeapOp+int64(len(exits))*4, 0, 0)
		return next
	}
	t.runPushPullWaves(frontier, knnMsgBytes, scan, prep, afterWave)

	out := make([][]Neighbor, len(queries))
	for i := range states {
		out[i] = states[i].best
	}
	return out
}

// expandL0KNN walks the CPU-resident L0 part of a kNN descent, scoring L0
// leaves directly and emitting chunk entries; returns CPU work.
func (t *Tree) expandL0KNN(qi int32, n *Node, q geom.Point, cs *candState, k int, coarse geom.Metric, frontier *[]entry) int64 {
	var work int64
	var rec func(n *Node)
	rec = func(n *Node) {
		work += 4
		if n.Box.MinDistTo(q, coarse) > cs.bound {
			return
		}
		if n.Layer != L0 {
			*frontier = append(*frontier, entry{qi: qi, node: n})
			return
		}
		if n.IsLeaf() {
			scanLeafKNN(n, q, coarse, cs, k)
			work += int64(len(n.Keys)) * (int64(q.Dims) + costmodel.WorkHeapOp)
			return
		}
		// Nearer child first to tighten the bound early.
		a, b := n.Left, n.Right
		if b.Box.MinDistTo(q, coarse) < a.Box.MinDistTo(q, coarse) {
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
		if n.Box.MinDistTo(q, coarse) > local.bound {
			return
		}
		if n.Chunk != c {
			*exits = append(*exits, entry{qi: e.qi, node: n})
			outBytes += resultMsgBytes
			return
		}
		if n.IsLeaf() {
			scanLeafKNN(n, q, coarse, local, k)
			work += int64(len(n.Keys)) * pimDistCost(coarse, q.Dims)
			return
		}
		a, b := n.Left, n.Right
		if b.Box.MinDistTo(q, coarse) < a.Box.MinDistTo(q, coarse) {
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
// returned lists alias t.found's arena and die with the next fetch.
func (t *Tree) collectSphere(queries []geom.Point, starts []*Node, bound []uint64, coarse geom.Metric) [][]geom.Point {
	sink := &t.found
	sink.reset()
	base := sink.extend(parallel.Workers())
	frontier := t.expandL0(len(queries), func(worker int, qi int32, frontier *[]entry) int64 {
		work := t.expandL0Sphere(qi, starts[qi], queries[qi], bound[qi], coarse, sink.open(base+worker, worker), frontier)
		sink.close(base+worker, worker)
		return work
	})

	// Several chunks of one wave may serve the same query concurrently, so
	// finds go to the sink by group and regroup by query after the last
	// wave.
	pimCost := pimDistCost(coarse, t.cfg.Dims)
	prep := func(nGroups int) { base = sink.extend(nGroups) }
	scan := func(c *Chunk, e entry, cpuSide bool, worker, gi int, exits *[]entry) (int64, int64) {
		distCost := pimCost
		if cpuSide {
			distCost = int64(t.cfg.Dims)
		}
		work, outBytes := t.sphereChunkScan(c, e, queries[e.qi], bound[e.qi], coarse, distCost, sink.open(base+gi, worker), exits)
		sink.close(base+gi, worker)
		return work, outBytes
	}
	t.runPushPullWaves(frontier, knnMsgBytes, scan, prep, nil)
	return sink.gather(len(queries), false)
}

// expandL0Sphere walks the CPU-resident L0 part of a sphere fetch.
func (t *Tree) expandL0Sphere(qi int32, n *Node, q geom.Point, bound uint64, coarse geom.Metric, found *[]foundPoint, frontier *[]entry) int64 {
	var work int64
	var rec func(n *Node)
	rec = func(n *Node) {
		work += 4
		if n.Box.MinDistTo(q, coarse) > bound {
			return
		}
		if n.Layer != L0 {
			*frontier = append(*frontier, entry{qi: qi, node: n})
			return
		}
		if n.IsLeaf() {
			work += int64(len(n.Keys)) * int64(q.Dims)
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
		if n.Box.MinDistTo(q, coarse) > bound {
			return
		}
		if n.Chunk != c {
			*exits = append(*exits, entry{qi: e.qi, node: n})
			outBytes += resultMsgBytes
			return
		}
		if n.IsLeaf() {
			work += int64(len(n.Keys)) * distCost
			outBytes += scanLeafSphere(n, q, coarse, bound, addPoint) * pointBytes
			return
		}
		rec(n.Left)
		rec(n.Right)
	}
	rec(e.node)
	return work, outBytes
}
