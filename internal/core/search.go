package core

import (
	"fmt"
	"math"

	"pimzdtree/internal/geom"
	"pimzdtree/internal/morton"
	"pimzdtree/internal/parallel"
	"pimzdtree/internal/pim"
)

// SearchResult describes where one top-down search ended (Alg. 1).
type SearchResult struct {
	// Terminal is the leaf the query key routes to, or the node at which
	// the key diverges from the stored prefixes (the insertion point for
	// keys not in the tree).
	Terminal *Node
	// LowK is the lowest node on the path whose lazy counter satisfies
	// SC >= k (populated when the search was asked to track some k;
	// Alg. 3 step 2).
	LowK *Node
	// Trace lists the L0 path nodes and each chunk-entry node visited,
	// root-first (populated when tracing is on; Alg. 2 step 1 and
	// Alg. 3 steps 3-4 re-ascend through it).
	Trace []*Node
}

// searchOpts controls trace collection.
type searchOpts struct {
	kTrack int  // record LowK for this k (0 = off)
	trace  bool // record Trace
}

// Search routes a batch of query points to their leaves using the
// three-phase push-pull search of Alg. 1 and returns one result per query.
func (t *Tree) Search(points []geom.Point) []SearchResult {
	res, _ := t.search(points)
	return res
}

// search is Search returning the batch's keys as well. They are Tree
// scratch: valid until the next batch operation.
func (t *Tree) search(points []geom.Point) ([]SearchResult, []uint64) {
	rec := t.sys.Recorder()
	rec.BeginOp("search")
	defer rec.EndOp()
	defer t.trimScratch()
	keys := t.encodeKeys(points)
	return t.searchKeys(keys, searchOpts{}), keys
}

// encodeKeys computes Morton keys on the host, charging the configured
// z-order encoder's cost.
func (t *Tree) encodeKeys(points []geom.Point) []uint64 {
	rec := t.sys.Recorder()
	rec.BeginPhase("encode-keys")
	defer rec.EndPhase()
	t.noteScratch(len(points))
	if cap(t.keyBuf) < len(points) {
		t.keyBuf = make([]uint64, len(points))
	}
	keys := t.keyBuf[:len(points)]
	parallel.For(len(points), func(i int) {
		if points[i].Dims != t.cfg.Dims {
			panic("core: query dims mismatch")
		}
		keys[i] = morton.EncodePoint(points[i])
	})
	zCost := morton.CostFast(t.cfg.Dims)
	if t.cfg.NaiveZOrder {
		zCost = morton.CostNaive(t.cfg.Dims)
	}
	t.sys.CPUPhase(int64(len(points))*zCost, 0, 0)
	return keys
}

// entry is one in-flight query positioned at a chunk-entry node.
type entry struct {
	qi   int32
	node *Node
}

// searchKeys is the batched search core.
func (t *Tree) searchKeys(keys []uint64, opts searchOpts) []SearchResult {
	res := make([]SearchResult, len(keys))
	if t.root == nil {
		return res
	}
	rec := t.sys.Recorder()

	// --- Phase 1: L0 ---
	rec.BeginPhase("L0-descend")
	frontier := t.searchL0(keys, opts, res)
	rec.EndPhase()

	// --- Phase 2: L1 pull loop + push ---
	rec.BeginPhase("L1-route")
	frontier = t.searchL1(keys, opts, res, frontier)
	rec.EndPhase()

	// --- Phase 3: L2 push-pull, one round per meta-level ---
	rec.BeginPhase("L2-descend")
	t.searchL2(keys, opts, res, frontier)
	rec.EndPhase()
	return res
}

// walkLanes is how many queries a descent walks abreast. Every step of a
// walk loads the child pointer of the node it just reached, so one query at
// a time waits on memory at each node; independent queries interleaved
// keep that many loads in flight.
const walkLanes = 16

// stopRule says where a descent hands a query on to the next phase.
type stopRule uint8

const (
	leaveL0    stopRule = iota // at the first node below L0: a chunk entry
	reachL2                    // at the first L2 node: the end of a cached L1 segment
	leaveChunk                 // at the first node outside the query's entry chunk
)

// descend walks each query of es from es[i].node down the tree, walkLanes
// queries abreast, until rule hands it on or it terminates at a leaf or a
// prefix divergence. For query qi it writes next[qi] — the node it stopped
// at, not yet observed, or nil once res[qi].Terminal is set — and
// visits[qi], the nodes it visited, each observed once, root-first. The
// queries are independent, so the interleaving changes nothing any of them
// records; concurrent calls must hold disjoint queries. L0 nodes are
// exactly the chunkless ones, so leaving L0 is leaving the nil chunk.
func (t *Tree) descend(keys []uint64, es []entry, rule stopRule, opts searchOpts, res []SearchResult, next []*Node, visits []int64) {
	kb := t.keyBits
	var (
		cur  [walkLanes]*Node
		home [walkLanes]*Chunk // the lane's entry chunk (leaveChunk only)
		key  [walkLanes]uint64
		qi   [walkLanes]int32
		vis  [walkLanes]int64
	)
	live, fill := 0, 0
	for ; live < walkLanes && fill < len(es); live, fill = live+1, fill+1 {
		e := es[fill]
		cur[live], key[live], qi[live] = e.node, keys[e.qi], e.qi
		if rule == leaveChunk {
			home[live] = e.node.Chunk
		}
	}
	for live > 0 {
		for l := 0; l < live; {
			n := cur[l]
			var stop bool
			if rule == reachL2 {
				stop = n.Layer == L2
			} else {
				stop = n.Chunk != home[l]
			}
			if !stop {
				vis[l]++
				k := key[l]
				shares := n.PrefixLen == 0 || (k^n.Key)>>(kb-uint(n.PrefixLen)) == 0
				if opts.kTrack > 0 && n.SC >= int64(opts.kTrack) && shares {
					res[qi[l]].LowK = n
				}
				if opts.trace {
					r := &res[qi[l]]
					r.Trace = append(r.Trace, n)
				}
				if left, right := n.Left, n.Right; left != nil && shares {
					// Both children are loaded and the key bit picks one
					// with a conditional move: a branch on it would
					// mispredict half the time and flush the other lanes'
					// loads in flight.
					c := left
					if k>>(kb-1-uint(n.PrefixLen))&1 != 0 {
						c = right
					}
					cur[l] = c
					l++
					continue
				}
				res[qi[l]].Terminal = n
				n = nil
			}
			next[qi[l]], visits[qi[l]] = n, vis[l]
			// The lane is free: the next query takes it, or the last live
			// lane moves down into it.
			if fill < len(es) {
				e := es[fill]
				fill++
				cur[l], key[l], qi[l], vis[l] = e.node, keys[e.qi], e.qi, 0
				if rule == leaveChunk {
					home[l] = e.node.Chunk
				}
			} else {
				live--
				cur[l], home[l], key[l], qi[l], vis[l] = cur[live], home[live], key[live], qi[live], vis[live]
			}
		}
	}
}

// descendAll runs descend over the whole of es on the host's workers.
func (t *Tree) descendAll(keys []uint64, es []entry, rule stopRule, opts searchOpts, res []SearchResult, next []*Node, visits []int64) {
	forQueries(len(es), func(_, lo, hi int) {
		t.descend(keys, es[lo:hi], rule, opts, res, next, visits)
	})
}

// walkScratch returns the per-query descent results of a batch of n
// queries (see descend). Slots are not cleared: a phase reads only the
// slots of the queries it just walked.
func (t *Tree) walkScratch(n int) (next []*Node, visits []int64) {
	if cap(t.nodeBuf) < n {
		t.nodeBuf = make([]*Node, n)
	}
	if cap(t.visitBuf) < n {
		t.visitBuf = make([]int64, n)
	}
	return t.nodeBuf[:n], t.visitBuf[:n]
}

// searchL0 runs phase 1 and returns the frontier of (query, chunk-entry)
// pairs that left L0.
func (t *Tree) searchL0(keys []uint64, opts searchOpts, res []SearchResult) []entry {
	// The frontier backing is Tree scratch: it lives until searchKeys
	// returns (later phases append in place, never past len(keys) entries)
	// and is dead by the next batch.
	if cap(t.frontierBuf) < len(keys) {
		t.frontierBuf = make([]entry, len(keys))
	}
	frontier := t.frontierBuf[:len(keys)]
	for i := range frontier {
		frontier[i] = entry{qi: int32(i), node: t.root}
	}
	next, visits := t.walkScratch(len(keys))
	t.descendAll(keys, frontier, leaveL0, opts, res, next, visits)
	if t.l0OnModules && len(keys) > 0 {
		// Alg. 1 step 1 option (2): split Q into P groups, each searched
		// against the module's L0 replica.
		p := t.P()
		t.sys.Round(t.sys.AllModules(), func(m *pim.Module) {
			lo := m.ID * len(keys) / p
			hi := (m.ID + 1) * len(keys) / p
			m.Recv(int64(hi-lo) * queryMsgBytes)
			for _, v := range visits[lo:hi] {
				m.Work(v * 4)
			}
			m.Send(int64(hi-lo) * resultMsgBytes)
		})
	} else {
		// L0 fits in the CPU cache: compute cost only, no DRAM traffic.
		t.sys.CPUPhase(parallel.Sum(visits)*4, 0, 0)
	}
	out := frontier[:0]
	for i, n := range next {
		if n != nil {
			out = append(out, entry{qi: int32(i), node: n})
		}
	}
	return out
}

// pullThresholdL1 is K = B log_P(ThetaL0/ThetaL1) from Alg. 1 step 2a.
func (t *Tree) pullThresholdL1() int {
	p := float64(t.P())
	ratio := float64(t.thetaL0) / float64(max64(t.thetaL1, 1))
	k := float64(t.chunkB)
	if p > 1 && ratio > 1 {
		k = float64(t.chunkB) * math.Log(ratio) / math.Log(p)
	}
	if k < 1 {
		k = 1
	}
	return int(k)
}

// moduleLoads sums per-module query counts over groups into a dense,
// module-indexed scratch slice (zeroed on each call).
func (t *Tree) moduleLoads(groups []chunkGroup) []int {
	p := t.P()
	if cap(t.loadBuf) < p {
		t.loadBuf = make([]int, p)
	}
	loads := t.loadBuf[:p]
	for i := range loads {
		loads[i] = 0
	}
	for _, g := range groups {
		loads[g.chunk.Module] += len(g.entries)
	}
	return loads
}

// searchL1 runs Alg. 1 steps 2-3 and returns the L2 frontier.
func (t *Tree) searchL1(keys []uint64, opts searchOpts, res []SearchResult, frontier []entry) []entry {
	var l2 []entry
	appendNext := func(qi int32, n *Node) {
		if n == nil {
			return
		}
		if n.Layer == L2 {
			l2 = append(l2, entry{qi: qi, node: n})
		} else {
			frontier = append(frontier, entry{qi: qi, node: n})
		}
	}

	// Keep only L1 entries; anything already in L2 skips ahead.
	pending := frontier
	frontier = frontier[:0]
	for _, e := range pending {
		appendNext(e.qi, e.node)
	}

	rec := t.sys.Recorder()
	next, visits := t.walkScratch(len(keys))
	kPull := t.pullThresholdL1()
	// groups is the grouping of frontier as it stands, or nil once the
	// frontier has changed since it was grouped.
	var groups []chunkGroup
	for iter := 0; len(frontier) > 0 && iter < 64; iter++ {
		if rec.Enabled() {
			rec.BeginPhase(fmt.Sprintf("L1-pull-%d", iter))
		}
		balanced := func() bool {
			defer rec.EndPhase()
			groups = t.groupByChunk(frontier)
			loads := t.moduleLoads(groups)
			if !pim.Imbalanced(loads, t.P()) {
				return true
			}
			// Alg. 1 step 2a: pull every meta-node holding more than K
			// queries. If none qualifies, the residual imbalance is from
			// hash placement (several cool chunks sharing a module), which
			// pulling cannot fix — push as-is, as the balls-into-bins bound
			// (Lemma 5.2) licenses.
			pulled, rest := t.router.partition(groups, func(g chunkGroup) bool {
				return len(g.entries) > kPull
			})
			if len(pulled) == 0 {
				return true
			}
			t.pullAndAdvance(keys, opts, res, pulled, next, visits)
			// The pulled queries' next hops rejoin the frontier after it
			// is rebuilt from the un-pulled groups.
			var pulledNext []entry
			for _, g := range pulled {
				for _, e := range g.entries {
					switch n := next[e.qi]; {
					case n == nil:
					case n.Layer == L2:
						l2 = append(l2, entry{qi: e.qi, node: n})
					default:
						pulledNext = append(pulledNext, entry{qi: e.qi, node: n})
					}
				}
			}
			frontier = frontier[:0]
			for _, g := range rest {
				frontier = append(frontier, g.entries...)
			}
			frontier = append(frontier, pulledNext...)
			groups = nil
			return false
		}()
		if balanced {
			break
		}
	}

	if len(frontier) > 0 {
		// Alg. 1 step 3: push balanced queries; the entry module's L1
		// caching finishes the whole L1 segment in this single round.
		rec.BeginPhase("L1-push")
		if groups == nil {
			groups = t.groupByChunk(frontier)
		} else {
			// The balanced frontier is grouped already; regrouping it
			// would reproduce the same groups, but the model still
			// charges the round's grouping.
			t.chargeGrouping(len(frontier))
		}
		t.descendAll(keys, frontier, reachL2, opts, res, next, visits)
		t.chargeVisits(nil, groups, visits)
		for _, g := range groups {
			for _, e := range g.entries {
				appendNext(e.qi, next[e.qi])
			}
		}
		rec.Add("l1-cache-hits", int64(len(frontier)))
		rec.EndPhase()
	}
	return l2
}

// searchL2 runs Alg. 1 step 4: one push-pull round per L2 meta-level.
// Pushed and pulled queries alike advance exactly one meta-level (Alg. 1
// excludes caches from pulls), so the host walks the whole frontier once
// and the round only charges it.
func (t *Tree) searchL2(keys []uint64, opts searchOpts, res []SearchResult, frontier []entry) {
	rec := t.sys.Recorder()
	kPull := int(t.chunkB) // K = B
	next, visits := t.walkScratch(len(keys))
	for level := 0; len(frontier) > 0; level++ {
		if rec.Enabled() {
			rec.BeginPhase(fmt.Sprintf("L2-level-%d", level))
		}
		groups := t.groupByChunk(frontier)
		pulled, pushed := t.router.partition(groups, func(g chunkGroup) bool {
			return len(g.entries) > kPull
		})
		t.descendAll(keys, frontier, leaveChunk, opts, res, next, visits)
		t.chargeVisits(pulled, pushed, visits)

		frontier = frontier[:0]
		for _, g := range groups {
			for _, e := range g.entries {
				if n := next[e.qi]; n != nil {
					frontier = append(frontier, entry{qi: e.qi, node: n})
				}
			}
		}
		rec.EndPhase()
	}
}

// pullAndAdvance advances the pulled groups' queries one meta-level on the
// host, which walks each chunk's master structure (Alg. 1 excludes caches
// from pulls), and charges the pull-only round that ships the masters.
// Distinct groups hold distinct queries, so the groups' walks run in
// parallel; results land in next and visits (see descend).
func (t *Tree) pullAndAdvance(keys []uint64, opts searchOpts, res []SearchResult, pulled []chunkGroup, next []*Node, visits []int64) {
	parallel.ForDynamic(len(pulled), func(_, lo, hi int) {
		for _, g := range pulled[lo:hi] {
			t.descend(keys, g.entries, leaveChunk, opts, res, next, visits)
		}
	})
	t.chargeVisits(pulled, nil, visits)
}

// chargeVisits charges one BSP round of a search whose queries the host has
// already walked (visits, from descend): a query costs 4 cycles per visited
// node, and a pushed one sends one result back (see chargeRound).
func (t *Tree) chargeVisits(pulled, pushed []chunkGroup, visits []int64) {
	r := &t.router
	r.route(t.P(), pulled, pushed)
	for gi, g := range r.groups {
		var c groupCost
		for _, e := range g.entries {
			c.work += visits[e.qi] * 4
		}
		if gi < r.nPush {
			c.sent = int64(len(g.entries)) * resultMsgBytes
		}
		r.cost[gi] = c
	}
	t.chargeRound(queryMsgBytes)
}

// ContainsBatch answers exact point membership for the batch: the batch
// search routes every key to its terminal node, and a host-side check
// tests whether the terminal leaf actually stores the queried point
// (terminal nodes for absent keys are the divergence point, not a leaf
// holding the key). An empty tree answers without running a search.
func (t *Tree) ContainsBatch(points []geom.Point) []bool {
	found := make([]bool, len(points))
	if t.root == nil {
		return found
	}
	res, keys := t.search(points)
	for i, r := range res {
		term := r.Terminal
		if term == nil || !term.IsLeaf() {
			continue
		}
		for j, k := range term.Keys {
			if k == keys[i] && term.point(j).Equal(points[i]) {
				found[i] = true
				break
			}
		}
	}
	return found
}

// Contains reports whether the tree stores a point equal to p — a
// single-query ContainsBatch (mainly for tests; real workloads batch).
func (t *Tree) Contains(p geom.Point) bool {
	return t.ContainsBatch([]geom.Point{p})[0]
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
