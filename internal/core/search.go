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
	rec := t.sys.Recorder()
	rec.BeginOp("search")
	defer rec.EndOp()
	defer t.trimScratch()
	keys := t.encodeKeys(points)
	return t.searchKeys(keys, searchOpts{})
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

// descendL0 walks one query through L0 on whatever processor runs it,
// returning the first non-L0 node (chunk entry) or the in-L0 terminal, and
// the number of nodes visited.
func (t *Tree) descendL0(key uint64, opts searchOpts, r *SearchResult) (*Node, int64) {
	n := t.root
	var visited int64
	for {
		if n.Layer != L0 {
			// The chunk-entry node is observed by the phase that
			// processes it, exactly once.
			return n, visited
		}
		visited++
		t.observe(n, key, opts, r)
		if n.IsLeaf() || !t.sharesPrefix(key, n) {
			r.Terminal = n
			return nil, visited
		}
		n = t.childFor(n, key)
	}
}

// observe updates per-query trace state at a visited node.
func (t *Tree) observe(n *Node, key uint64, opts searchOpts, r *SearchResult) {
	if opts.kTrack > 0 && n.SC >= int64(opts.kTrack) && t.sharesPrefix(key, n) {
		r.LowK = n
	}
	if opts.trace {
		r.Trace = append(r.Trace, n)
	}
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
	if cap(t.visitBuf) < len(keys) {
		t.visitBuf = make([]int64, len(keys))
	}
	visits := t.visitBuf[:len(keys)]
	run := func(i int) {
		n, v := t.descendL0(keys[i], opts, &res[i])
		visits[i] = v
		if n != nil {
			frontier[i] = entry{qi: int32(i), node: n}
		} else {
			frontier[i] = entry{qi: -1}
		}
	}
	if t.l0OnModules && len(keys) > 0 {
		// Alg. 1 step 1 option (2): split Q into P groups, each searched
		// against the module's L0 replica.
		p := t.P()
		t.sys.RoundN(t.sys.AllModules(), len(keys), func(m *pim.Module) {
			lo := m.ID * len(keys) / p
			hi := (m.ID + 1) * len(keys) / p
			m.Recv(int64(hi-lo) * queryMsgBytes)
			for i := lo; i < hi; i++ {
				run(i)
				m.Work(visits[i] * 4)
			}
			m.Send(int64(hi-lo) * resultMsgBytes)
		})
	} else {
		parallel.For(len(keys), func(i int) { run(i) })
		// L0 fits in the CPU cache: compute cost only, no DRAM traffic.
		t.sys.CPUPhase(parallel.Sum(visits)*4, 0, 0)
	}
	out := frontier[:0]
	for _, e := range frontier {
		if e.qi >= 0 {
			out = append(out, e)
		}
	}
	return out
}

// nodeScratch returns a reusable []*Node of length n. Slots are not
// cleared: callers either write every slot they later read (searchL1) or
// clear exactly the slots they may read (searchL2).
func (t *Tree) nodeScratch(n int) []*Node {
	if cap(t.nodeBuf) < n {
		t.nodeBuf = make([]*Node, n)
	}
	return t.nodeBuf[:n]
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

// traverseChunkMaster walks a query from nd through its chunk's master
// structure only (used for pulled chunks, whose caches are deliberately
// not fetched), stopping on chunk exit, leaf, or prefix divergence.
func (t *Tree) traverseChunkMaster(key uint64, nd *Node, opts searchOpts, r *SearchResult) (next *Node, visited int64) {
	c := nd.Chunk
	n := nd
	for {
		visited++
		t.observe(n, key, opts, r)
		if n.IsLeaf() || !t.sharesPrefix(key, n) {
			r.Terminal = n
			return nil, visited
		}
		ch := t.childFor(n, key)
		if ch.Chunk != c {
			return ch, visited
		}
		n = ch
	}
}

// traverseL1Cached walks a query from an L1 entry through the entry
// module's cached copy of the whole remaining L1 structure (§3.1), exiting
// at the first L2 node, leaf, or divergence.
func (t *Tree) traverseL1Cached(key uint64, nd *Node, opts searchOpts, r *SearchResult) (next *Node, visited int64) {
	n := nd
	for {
		if n.Layer == L2 {
			// Observed by the L2 phase that receives it.
			return n, visited
		}
		visited++
		t.observe(n, key, opts, r)
		if n.IsLeaf() || !t.sharesPrefix(key, n) {
			r.Terminal = n
			return nil, visited
		}
		n = t.childFor(n, key)
	}
}

// groupByChunk semisorts entries by chunk identity.
type chunkGroup struct {
	chunk   *Chunk
	entries []entry
}

func (t *Tree) groupByChunk(frontier []entry) []chunkGroup {
	if len(frontier) == 0 {
		return nil
	}
	t.noteScratch(len(frontier))
	rec := t.sys.Recorder()
	rec.BeginPhase("semisort")
	groups := t.entrySorter.Semisort(frontier, func(e entry) uint64 { return e.node.Chunk.ID })
	t.sys.CPUPhase(parallel.CountingSortWork(len(frontier)), int64(len(frontier))*8, 0)
	rec.EndPhase()
	// The chunkGroup backing is Tree scratch too: callers are done with one
	// round's groups before they regroup the next frontier.
	out := t.groupBuf[:0]
	for _, g := range groups {
		out = append(out, chunkGroup{chunk: frontier[g.Lo].node.Chunk, entries: frontier[g.Lo:g.Hi]})
	}
	t.groupBuf = out
	return out
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
	kPull := t.pullThresholdL1()
	for iter := 0; len(frontier) > 0 && iter < 64; iter++ {
		if rec.Enabled() {
			rec.BeginPhase(fmt.Sprintf("L1-pull-%d", iter))
		}
		balanced := func() bool {
			defer rec.EndPhase()
			groups := t.groupByChunk(frontier)
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
			// Collect the pulled queries' next hops separately: they rejoin
			// the frontier after it is rebuilt from the un-pulled groups.
			var pulledNext []entry
			t.pullAndAdvance(keys, opts, res, pulled, func(qi int32, n *Node) {
				if n.Layer == L2 {
					l2 = append(l2, entry{qi: qi, node: n})
				} else {
					pulledNext = append(pulledNext, entry{qi: qi, node: n})
				}
			})
			frontier = frontier[:0]
			for _, g := range rest {
				frontier = append(frontier, g.entries...)
			}
			frontier = append(frontier, pulledNext...)
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
		groups := t.groupByChunk(frontier)
		// No clearing needed: every e in groups writes next[e.qi] in the
		// round before the read below.
		next := t.nodeScratch(len(keys))
		t.roundOverGroups(groups, func(m *pim.Module, g chunkGroup) {
			m.Recv(int64(len(g.entries)) * queryMsgBytes)
			for _, e := range g.entries {
				nd, visited := t.traverseL1Cached(keys[e.qi], e.node, opts, &res[e.qi])
				m.Work(visited * 4)
				next[e.qi] = nd
			}
			m.Send(int64(len(g.entries)) * resultMsgBytes)
		})
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
func (t *Tree) searchL2(keys []uint64, opts searchOpts, res []SearchResult, frontier []entry) {
	rec := t.sys.Recorder()
	kPull := int(t.chunkB) // K = B
	nextOf := t.nodeScratch(len(keys))
	for level := 0; len(frontier) > 0; level++ {
		if rec.Enabled() {
			rec.BeginPhase(fmt.Sprintf("L2-level-%d", level))
		}
		groups := t.groupByChunk(frontier)
		pulled, pushed := t.router.partition(groups, func(g chunkGroup) bool {
			return len(g.entries) > kPull
		})
		// record only writes advancing queries, so clear the slots of the
		// in-flight frontier: a query that terminates this round must not
		// see a stale pointer from an earlier round (or batch).
		for _, e := range frontier {
			nextOf[e.qi] = nil
		}
		record := func(qi int32, n *Node) { nextOf[qi] = n }

		// Single BSP round: pulled chunks ship their masters up; pushed
		// queries descend one meta-level on their modules.
		t.pullAndAdvanceInRound(keys, opts, res, pulled, pushed, record)

		frontier = frontier[:0]
		for _, g := range groups {
			for _, e := range g.entries {
				if n := nextOf[e.qi]; n != nil {
					frontier = append(frontier, entry{qi: e.qi, node: n})
				}
			}
		}
		rec.EndPhase()
	}
}

// pullAndAdvance executes a pull-only round: each pulled chunk's module
// sends its master structure to the CPU, which traverses the chunk and
// advances its queries one meta-level (Alg. 1 excludes caches from pulls,
// so pulled queries move exactly one chunk per round). Host traversals run
// in parallel across groups — distinct groups hold distinct queries, so
// res writes never race — with each group's survivors collected in a
// per-group slot and handed to appendNext serially in group order.
func (t *Tree) pullAndAdvance(keys []uint64, opts searchOpts, res []SearchResult, pulled []chunkGroup, appendNext func(int32, *Node)) {
	if len(pulled) == 0 {
		return
	}
	r := &t.router
	r.route(t.P(), pulled, nil)
	t.sys.Round(r.active, func(m *pim.Module) {
		for _, g := range r.pullsOf(m.ID) {
			m.Send(g.chunk.StructBytes)
		}
	})
	pullSlots := r.pullSlots(len(pulled))
	cpuWork, cpuBytes := t.scanPulled(pulled, func(worker, gi int, g chunkGroup) (int64, int64) {
		var work int64
		for _, e := range g.entries {
			nd, visited := t.traverseChunkMaster(keys[e.qi], e.node, opts, &res[e.qi])
			work += visited * 4
			if nd != nil {
				pullSlots[gi] = append(pullSlots[gi], entry{qi: e.qi, node: nd})
			}
		}
		return work, 0
	})
	for _, slot := range pullSlots {
		for _, e := range slot {
			appendNext(e.qi, e.node)
		}
	}
	t.sys.Recorder().Add("chunk-pulls", int64(len(pulled)))
	t.sys.CPUPhase(cpuWork, cpuBytes, 0)
}

// pullAndAdvanceInRound executes one combined push-pull BSP round over L2
// groups: pulled chunks ship masters, pushed queries run on modules; both
// advance exactly one meta-level. The module handlers run concurrently
// once the pushed groups hold enough queries (pim.System.RoundN): each
// writes only its module's result slot and the SearchResults of its own
// groups' queries. record must tolerate concurrent calls for distinct
// queries (each query appears in exactly one group, and the sole caller
// writes a per-query slot), which lets the pulled groups' host traversals
// run in parallel across groups.
func (t *Tree) pullAndAdvanceInRound(keys []uint64, opts searchOpts, res []SearchResult, pulled, pushed []chunkGroup, record func(int32, *Node)) {
	r := &t.router
	r.route(t.P(), pulled, pushed)
	if len(r.active) == 0 {
		return
	}
	resSlots := r.resSlots(len(r.active))
	t.sys.RoundN(r.active, r.queued, func(m *pim.Module) {
		slot := r.slot[m.ID]
		out := resSlots[slot]
		for _, g := range r.pullsOf(m.ID) {
			m.Send(g.chunk.StructBytes)
		}
		for _, g := range r.pushesOf(m.ID) {
			m.Recv(int64(len(g.entries)) * queryMsgBytes)
			for _, e := range g.entries {
				nd, visited := t.traverseChunkMaster(keys[e.qi], e.node, opts, &res[e.qi])
				m.Work(visited * 4)
				out = append(out, entry{qi: e.qi, node: nd})
			}
			m.Send(int64(len(g.entries)) * resultMsgBytes)
		}
		resSlots[slot] = out
	})
	for _, out := range resSlots {
		for _, pr := range out {
			if pr.node != nil {
				record(pr.qi, pr.node)
			}
		}
	}
	if len(pulled) > 0 {
		cpuWork, cpuBytes := t.scanPulled(pulled, func(worker, gi int, g chunkGroup) (int64, int64) {
			var work int64
			for _, e := range g.entries {
				nd, visited := t.traverseChunkMaster(keys[e.qi], e.node, opts, &res[e.qi])
				work += visited * 4
				if nd != nil {
					record(e.qi, nd)
				}
			}
			return work, 0
		})
		t.sys.Recorder().Add("chunk-pulls", int64(len(pulled)))
		t.sys.CPUPhase(cpuWork, cpuBytes, 0)
	}
}

// roundOverGroups runs one BSP round with each group's queries processed
// on the group's module (groups in group order within each module).
// Handlers of different modules run concurrently once the groups hold
// enough queries (pim.System.RoundN), so a handler may only write state of
// its own module and of its own groups' queries.
func (t *Tree) roundOverGroups(groups []chunkGroup, handler func(m *pim.Module, g chunkGroup)) {
	r := &t.router
	r.route(t.P(), nil, groups)
	t.sys.RoundN(r.active, r.queued, func(m *pim.Module) {
		for _, g := range r.pushesOf(m.ID) {
			handler(m, g)
		}
	})
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
	for i, r := range t.Search(points) {
		term := r.Terminal
		if term == nil || !term.IsLeaf() {
			continue
		}
		key := morton.EncodePoint(points[i])
		for j, k := range term.Keys {
			if k == key && term.point(j).Equal(points[i]) {
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
