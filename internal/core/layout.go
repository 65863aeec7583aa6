package core

import (
	"math"
	"math/bits"

	"pimzdtree/internal/parallel"
	"pimzdtree/internal/pim"
)

// layoutGrain is the sequential cutoff for the fork-join tree walks of the
// layout pass (assignLayers, chunkifyFrom, clearDirty): subtrees at or
// below this size stay serial.
const layoutGrain = 2048

// computeThresholds derives the layer thresholds from the current size and
// the selected tuning (Table 2). The size feeding ThetaL0 = n/P is itself
// tracked lazily (it re-bases only when n doubles or halves): exact
// tracking would shift the layer boundary on every batch and force chunk
// churn, the same problem lazy counters solve for per-node sizes (§3.4).
func (t *Tree) computeThresholds() {
	n := int64(t.Size())
	if t.thetaBaseN == 0 || n > 2*t.thetaBaseN || n < t.thetaBaseN/2 {
		t.thetaBaseN = n
	}
	n = t.thetaBaseN
	p := int64(t.P())
	switch t.cfg.Tuning {
	case ThroughputOptimized:
		t.thetaL0 = n / p
		if t.thetaL0 < 2 {
			t.thetaL0 = 2
		}
		t.thetaL1 = 1
		t.chunkB = t.thetaL0
	case SkewResistant:
		t.thetaL0 = 4 * p
		if t.thetaL0 < 64 {
			t.thetaL0 = 64
		}
		t.chunkB = 16
		lg := math.Log(float64(p)) / math.Log(float64(t.chunkB))
		t.thetaL1 = int64(math.Ceil(lg))
		if t.thetaL1 < 2 {
			t.thetaL1 = 2
		}
	case Custom:
		t.thetaL0 = t.cfg.ThetaL0
		t.thetaL1 = t.cfg.ThetaL1
		t.chunkB = t.cfg.B
		if t.thetaL0 < 2 {
			t.thetaL0 = 2
		}
		if t.thetaL1 < 1 {
			t.thetaL1 = 1
		}
		if t.chunkB < 2 {
			t.chunkB = 2
		}
	}
	if t.thetaL1 > t.thetaL0 {
		t.thetaL1 = t.thetaL0
	}
}

// layerOf returns the layer a node belongs to given its lazy snapshot and
// the parent's layer (layers are monotone down the tree). Transitions use
// a factor-2 hysteresis band — a node enters a layer when SC crosses the
// threshold but only leaves once SC falls below half of it. Lemma 3.1
// already grants snapshots a factor-2 tolerance, so the band changes no
// cost bound, and it keeps chunk roots (and thus placement) stable while
// subtrees drift around the thresholds; without it every batch would
// re-ship the chunks whose roots sit near the boundary.
func (t *Tree) layerOf(n *Node, parentLayer Layer) Layer {
	cur := n.Layer
	l0Stay, l1Stay := t.thetaL0/2, t.thetaL1/2
	if l0Stay < 1 {
		l0Stay = 1
	}
	if l1Stay < 1 {
		l1Stay = 1
	}
	var l Layer
	switch {
	case n.SC >= t.thetaL0 || (cur == L0 && n.SC >= l0Stay):
		l = L0
	case n.SC >= t.thetaL1 || (cur != layerNew && cur != L2 && n.SC >= l1Stay):
		l = L1
	default:
		l = L2
	}
	if l < parentLayer {
		l = parentLayer
	}
	return l
}

// relayout recomputes layer assignment, chunking and placement from the
// current logical tree, charging the physical cost of every change:
// moved/new chunks cross the channels, L1 cache replicas are refreshed, and
// promotions to a module-replicated L0 are broadcast. Unchanged chunks
// (same ID, same module, no dirty node) cost nothing, so steady-state
// batches only pay for what they touched.
//
// Every pass is a deterministic fork-join: the tree walks fork over
// disjoint subtrees into branch-local accumulators (layerCounts,
// chunkSink), and the chunk-wise diff/footprint loops block-fan-out over
// the chunk list with per-worker Lanes. All accumulation is commutative
// int64 sums merged after the joins, so the charged rounds and recorder
// counters are byte-identical to the serial walk at any GOMAXPROCS.
func (t *Tree) relayout() {
	rec := t.sys.Recorder()
	rec.BeginPhase("relayout")
	defer rec.EndPhase()
	t.computeThresholds()
	old := t.chunks
	t.chunks = make(map[uint64]*Chunk, len(old))

	var promoted, demoted int64
	if cap(t.moveBuf) < t.P() {
		t.moveBuf = make([]int64, t.P())
	}
	moveBytes := t.moveBuf[:t.P()]
	for m := range moveBytes {
		moveBytes[m] = 0
	}
	var l0Broadcast int64

	sink := &t.chunkBuild
	sink.chunks = sink.chunks[:0]
	sink.migrations = 0
	if t.root != nil {
		lc := t.assignLayers(t.root, L0)
		promoted, demoted = lc.promoted, lc.demoted
		t.l0Count, t.l0Bytes = lc.l0Count, lc.l0Bytes
		t.l0OnModules = t.l0Bytes > t.cfg.CacheBudget
		// Rehoming threshold from the previous layout: overloaded means
		// more than twice the fair per-module share plus slack for hash
		// variance (a handful of average chunks), so ordinary placement
		// noise never triggers migration churn.
		total, _ := t.sys.StoredBytesTotal()
		fair := total / int64(t.P())
		var avgChunk int64
		if len(old) > 0 {
			avgChunk = total / int64(len(old))
		}
		t.rehomeThreshold = 2*fair + 8*avgChunk + 16<<10
		t.chunkifyFrom(t.root, nil, sink)
	} else {
		t.l0Count, t.l0Bytes = 0, 0
		t.l0OnModules = false
	}
	// Publish the new chunk table in build order — the same order the
	// serial walk inserted, so ID collisions (last insert wins) resolve
	// identically.
	for _, c := range sink.chunks {
		t.chunks[c.ID] = c
	}
	t.rankChunks()
	if sink.migrations > 0 {
		rec.Add("chunk-migrations", sink.migrations)
	}

	// Diff against the previous layout to charge movement. A chunk ships
	// in full when its data genuinely crosses the channel: the initial
	// bulk distribution (first layout), a module change, or an overload
	// rehoming. Re-rooted, fresh, or edited-in-place chunks in steady
	// state exchange structural delta messages only — their payload bytes
	// were already delivered by the update rounds (Alg. 2 steps 2-3) or
	// never moved, and charging them again would double-count.
	const deltaMsgBytes = 64
	initialLoad := !t.bootstrapped
	var moved, edited, movedBytes int64
	if len(sink.chunks) > 0 {
		workers := t.layoutWorkers(len(sink.chunks))
		t.moveLanes.Reset(workers, t.P())
		parallel.BlocksN(workers, len(sink.chunks), func(w, lo, hi int) {
			acc := &t.diffAccs[w]
			lane := t.moveLanes.Lane(w)
			for _, c := range sink.chunks[lo:hi] {
				if t.chunks[c.ID] != c {
					continue // shadowed by an ID collision; the table kept the later build
				}
				prev, ok := old[c.ID]
				mv := c.migrated || (ok && prev.Module != c.Module) || (!ok && initialLoad)
				ed := !mv &&
					(!ok || prev.NodeCount != c.NodeCount || prev.Bytes != c.Bytes || t.chunkDirty(c))
				if !mv && !ed {
					continue
				}
				var masterBytes, cacheBytes int64
				if mv {
					acc.moved++
					masterBytes = c.Bytes
					cacheBytes = int64(c.NodeCount) * nodeBytes
				} else {
					acc.edited++
					masterBytes = deltaMsgBytes
					cacheBytes = deltaMsgBytes
				}
				acc.bytes += masterBytes
				lane[c.Module] += masterBytes
				if c.Layer == L1 {
					// Refresh this chunk's cached structure at its ancestor
					// and descendant L1 chunks (the §3.1 sharing set).
					acc.holders = t.appendCacheHolders(c, acc.holders[:0])
					for _, holder := range acc.holders {
						lane[holder] += cacheBytes
					}
				}
			}
		})
		for w := 0; w < workers; w++ {
			moved += t.diffAccs[w].moved
			edited += t.diffAccs[w].edited
			movedBytes += t.diffAccs[w].bytes
		}
		t.moveLanes.SumInto(moveBytes)
	}
	t.movedChunks += moved
	t.editedChunks += edited
	t.moveBytesTotal += movedBytes
	if moved > 0 {
		rec.Add("chunk-moves", moved)
	}
	if edited > 0 {
		rec.Add("chunk-edits", edited)
	}
	anyChange := moved+edited > 0
	if promoted > 0 && t.l0OnModules {
		l0Broadcast = promoted * nodeBytes
	}
	t.promotions += promoted
	t.demotions += demoted
	if rec.Enabled() {
		rec.Add("layer-promotions", promoted)
		rec.Add("layer-demotions", demoted)
	}

	if anyChange || l0Broadcast > 0 {
		// Alg. 2 step 3c/3d: two communication rounds apply the cache and
		// layer modifications (active modules ascending).
		modules := t.activeBuf[:0]
		for m := range moveBytes {
			if moveBytes[m] > 0 {
				modules = append(modules, m)
			}
		}
		t.activeBuf = modules
		t.sys.Round(modules, func(m *pim.Module) {
			m.Recv(moveBytes[m.ID])
			m.Work(moveBytes[m.ID] / 8)
		})
		if l0Broadcast > 0 {
			t.sys.Broadcast(l0Broadcast)
		} else {
			t.sys.Round(nil, func(m *pim.Module) {})
		}
	}

	t.recomputeFootprints()
	t.clearDirty(t.root)
	t.bootstrapped = true
}

// layoutWorkers returns the fan-out width for a chunk-list pass over n
// chunks and ensures the per-worker diff accumulators are sized and reset.
func (t *Tree) layoutWorkers(n int) int {
	w := parallel.Workers()
	if w > n {
		w = n
	}
	if cap(t.diffAccs) < w {
		t.diffAccs = make([]diffAcc, w)
	}
	t.diffAccs = t.diffAccs[:cap(t.diffAccs)]
	for i := range t.diffAccs {
		t.diffAccs[i].moved = 0
		t.diffAccs[i].edited = 0
		t.diffAccs[i].bytes = 0
	}
	return w
}

// layerCounts accumulates one assignLayers branch: layer transitions and
// the L0 statistics the relayout needs. Branch accumulators are summed
// after the fork joins.
type layerCounts struct {
	promoted, demoted int64
	l0Count, l0Bytes  int64
}

func (lc *layerCounts) add(o layerCounts) {
	lc.promoted += o.promoted
	lc.demoted += o.demoted
	lc.l0Count += o.l0Count
	lc.l0Bytes += o.l0Bytes
}

// assignLayers walks the tree setting each node's Layer from its lazy
// snapshot, counting transitions and L0 statistics into the returned
// accumulator. Left/right subtrees are disjoint, so large subtrees fork.
func (t *Tree) assignLayers(n *Node, parentLayer Layer) layerCounts {
	var acc layerCounts
	newLayer := t.layerOf(n, parentLayer)
	if n.Layer != newLayer && n.Layer != layerNew {
		if newLayer < n.Layer {
			acc.promoted++
		} else {
			acc.demoted++
		}
	}
	n.Layer = newLayer
	if newLayer == L0 {
		n.Chunk = nil
		acc.l0Count++
		acc.l0Bytes += nodeFootprint(n)
	}
	if n.IsLeaf() {
		return acc
	}
	if n.Size > layoutGrain && parallel.Workers() > 1 {
		var left, right layerCounts
		parallel.Do(
			func() { left = t.assignLayers(n.Left, newLayer) },
			func() { right = t.assignLayers(n.Right, newLayer) },
		)
		acc.add(left)
		acc.add(right)
		return acc
	}
	acc.add(t.assignLayers(n.Left, newLayer))
	acc.add(t.assignLayers(n.Right, newLayer))
	return acc
}

// chunkSink collects the chunks built by one chunkify branch, in the walk
// order the serial pass would have inserted them, plus the migration count.
// Fork branches fill their own sink; sinks are concatenated left-to-right
// after the join, reproducing the serial build order exactly.
type chunkSink struct {
	chunks     []*Chunk
	migrations int64

	// rankChunks' scratch, sized by the chunk list: the (ID, build index)
	// pairs, the bucket counts and the ranks by build index.
	ids   []uint64
	order []uint32
	cnt   []int
	ranks []uint32
}

// diffAcc is one worker's accumulator for the chunk diff and footprint
// passes, plus its cache-holder scratch.
type diffAcc struct {
	moved, edited, bytes int64
	holders              []int
}

// getSink pops (or creates) an empty branch sink from the freelist.
func (t *Tree) getSink() *chunkSink {
	t.arenaMu.Lock()
	var s *chunkSink
	if n := len(t.sinkFree); n > 0 {
		s = t.sinkFree[n-1]
		t.sinkFree = t.sinkFree[:n-1]
	}
	t.arenaMu.Unlock()
	if s == nil {
		s = new(chunkSink)
	}
	s.chunks = s.chunks[:0]
	s.migrations = 0
	return s
}

func (t *Tree) putSink(s *chunkSink) {
	t.arenaMu.Lock()
	t.sinkFree = append(t.sinkFree, s)
	t.arenaMu.Unlock()
}

// chunkifyFrom walks from the root creating chunks for every maximal
// non-L0 region, applying the subtree-size chunking rule of §3.2. L0
// subtrees fork: the chunk regions below disjoint L0 nodes are
// independent, and each branch builds into its own sink.
func (t *Tree) chunkifyFrom(n *Node, parent *Chunk, out *chunkSink) {
	if n.Layer != L0 {
		t.buildChunk(n, parent, out)
		return
	}
	if n.IsLeaf() {
		return
	}
	if n.Size > layoutGrain && parallel.Workers() > 1 {
		right := t.getSink()
		parallel.Do(
			func() { t.chunkifyFrom(n.Left, nil, out) },
			func() { t.chunkifyFrom(n.Right, nil, right) },
		)
		out.chunks = append(out.chunks, right.chunks...)
		out.migrations += right.migrations
		t.putSink(right)
		return
	}
	t.chunkifyFrom(n.Left, nil, out)
	t.chunkifyFrom(n.Right, nil, out)
}

// buildChunk creates the chunk rooted at r: r plus every same-layer
// descendant d reached through members with SC(d) > SC(r)/B. Descendants
// that fall out of the chunk (or change layer) become child chunk roots.
func (t *Tree) buildChunk(r *Node, parent *Chunk, out *chunkSink) *Chunk {
	id := chunkID(r)
	// Placement: a re-rooted chunk (its root already lived in a chunk)
	// keeps that module — masters do not move when a meta-node is split
	// by promotion or growth. Fresh roots hash to a random module (§3's
	// randomized placement). Brand-new subtrees created by an update were
	// materialized directly on their parent chunk's module by the update
	// rounds, so they inherit it. Inheritance is overridden (a genuine,
	// fully charged move) when the inherited module already holds more
	// than twice its fair share — without this, sustained growth in one
	// region would pile that region's chunks onto one module.
	hashModule := int(pim.Hash64(id) % uint64(t.P()))
	module := hashModule
	migrated := false
	inherit := -1
	if r.Chunk != nil {
		inherit = r.Chunk.Module
	} else if parent != nil && t.bootstrapped {
		inherit = parent.Module
	}
	if inherit >= 0 {
		if t.rehomeThreshold > 0 && t.sys.Module(inherit).StoredBytes() > t.rehomeThreshold && hashModule != inherit {
			migrated = true // rehome to the hash target
			out.migrations++
		} else {
			module = inherit
		}
	}
	c := &Chunk{
		ID:       id,
		Module:   module,
		Layer:    r.Layer,
		Root:     r,
		Parent:   parent,
		migrated: migrated,
	}
	if parent != nil {
		c.Depth = parent.Depth + 1
		parent.Children = append(parent.Children, c)
	}
	threshold := r.SC / t.chunkB
	var walk func(n *Node)
	walk = func(n *Node) {
		n.Chunk = c
		c.NodeCount++
		c.Bytes += nodeFootprint(n)
		if n.IsLeaf() {
			return
		}
		for _, ch := range []*Node{n.Left, n.Right} {
			if ch.Layer == r.Layer && ch.SC > threshold {
				walk(ch)
			} else {
				t.buildChunk(ch, c, out)
			}
		}
	}
	walk(r)
	// Practical chunking (§6): dense chunks index children with a B-slot
	// table; sparse chunks use paired key/pointer arrays.
	c.Dense = int64(c.NodeCount) >= t.chunkB/4
	var overhead int64
	if c.Dense {
		overhead = t.chunkB * 8
		if overhead > 4096 {
			overhead = 4096
		}
	} else {
		overhead = int64(c.NodeCount) * 16
	}
	c.Bytes += overhead + chunkHeaderBytes
	c.StructBytes = int64(c.NodeCount)*nodeBytes + overhead + chunkHeaderBytes
	out.chunks = append(out.chunks, c)
	return c
}

// rankChunks ranks the chunks just built (see Chunk.rank) and records how
// many distinct IDs there are. The chunk list includes chunks an ID
// collision shadowed in the table: their nodes still point at them, so
// they need the rank of the ID they share.
//
// Chunk IDs are hashes, so their top bits spread them evenly: a counting
// sort of (ID, build index) pairs on the top b bits, 2^b > n, leaves about
// one ID per bucket, and an insertion sort finishes the buckets in expected
// linear time. It is serial and allocation-free, and on a 2-vCPU Xeon
// about 5x faster than parallel.Sorter's radix pair sort for 4-60 k chunks.
func (t *Tree) rankChunks() {
	sink := &t.chunkBuild
	n := len(sink.chunks)
	t.ranks = len(t.chunks)
	if n == 0 {
		return
	}
	b := bits.Len(uint(n))
	shift := 64 - b
	ids, order := sized(sink.ids, n), sized(sink.order, n)
	cnt := sized(sink.cnt, 1<<b+1)
	clear(cnt)
	for _, c := range sink.chunks {
		cnt[c.ID>>shift+1]++
	}
	for i := 1; i < len(cnt); i++ {
		cnt[i] += cnt[i-1]
	}
	for i, c := range sink.chunks {
		pos := &cnt[c.ID>>shift]
		ids[*pos], order[*pos] = c.ID, uint32(i)
		*pos++
	}
	for i := 1; i < n; i++ {
		id, o := ids[i], order[i]
		j := i
		for ; j > 0 && ids[j-1] > id; j-- {
			ids[j], order[j] = ids[j-1], order[j-1]
		}
		ids[j], order[j] = id, o
	}
	// The ranks land in build order first, so the pass that writes them
	// into the chunks walks the list in the order it was allocated.
	ranks := sized(sink.ranks, n)
	rank := uint32(0)
	for j, id := range ids {
		if j > 0 && id != ids[j-1] {
			rank++
		}
		ranks[order[j]] = rank
	}
	for i, c := range sink.chunks {
		c.rank = ranks[i]
	}
	sink.ids, sink.order, sink.cnt, sink.ranks = ids, order, cnt, ranks
}

// chunkID derives a stable identifier from the chunk root's identity, so
// unchanged subtrees keep their chunk (and module) across relayouts.
func chunkID(r *Node) uint64 {
	return pim.Hash64(r.Key ^ uint64(r.PrefixLen)<<56 ^ 0x5bf03635)
}

// appendCacheHolders appends the modules that hold cached copies of c's
// structure — the modules of its L1 ancestors and L1 descendants (§3.1) —
// to holders and returns it; callers pass a reused per-worker buffer to
// stay allocation-free.
func (t *Tree) appendCacheHolders(c *Chunk, holders []int) []int {
	for a := c.Parent; a != nil; a = a.Parent {
		if a.Layer == L1 {
			holders = append(holders, a.Module)
		}
	}
	return appendL1Descendants(c, holders)
}

func appendL1Descendants(c *Chunk, holders []int) []int {
	for _, ch := range c.Children {
		if ch.Layer == L1 {
			holders = append(holders, ch.Module)
			holders = appendL1Descendants(ch, holders)
		}
	}
	return holders
}

// chunkDirty reports whether any node in c was structurally modified since
// the last relayout. Runs per chunk inside the parallel diff pass, so the
// scans over distinct chunks proceed concurrently.
func (t *Tree) chunkDirty(c *Chunk) bool {
	return subtreeDirty(c.Root, c)
}

func subtreeDirty(n *Node, c *Chunk) bool {
	if n.dirty {
		return true
	}
	if n.IsLeaf() {
		return false
	}
	if n.Left.Chunk == c && subtreeDirty(n.Left, c) {
		return true
	}
	return n.Right.Chunk == c && subtreeDirty(n.Right, c)
}

// clearDirty resets dirty flags below n, forking over large subtrees.
func (t *Tree) clearDirty(n *Node) {
	if n == nil {
		return
	}
	n.dirty = false
	if n.IsLeaf() {
		return
	}
	if n.Size > layoutGrain && parallel.Workers() > 1 {
		parallel.Do(
			func() { t.clearDirty(n.Left) },
			func() { t.clearDirty(n.Right) },
		)
		return
	}
	t.clearDirty(n.Left)
	t.clearDirty(n.Right)
}

// recomputeFootprints refreshes the modeled per-module memory footprint:
// master chunks, L1 cache copies, and (if L0 lives on modules) the L0
// replica. The per-chunk sums fan out over the freshly built chunk list
// with per-worker lanes.
func (t *Tree) recomputeFootprints() {
	p := t.P()
	if cap(t.footBuf) < p {
		t.footBuf = make([]int64, p)
	}
	foot := t.footBuf[:p]
	for i := range foot {
		foot[i] = 0
	}
	list := t.chunkBuild.chunks
	if len(list) > 0 {
		workers := t.layoutWorkers(len(list))
		t.moveLanes.Reset(workers, p)
		parallel.BlocksN(workers, len(list), func(w, lo, hi int) {
			acc := &t.diffAccs[w]
			lane := t.moveLanes.Lane(w)
			for _, c := range list[lo:hi] {
				if t.chunks[c.ID] != c {
					continue // shadowed by an ID collision
				}
				lane[c.Module] += c.Bytes
				if c.Layer == L1 {
					struct_ := int64(c.NodeCount) * nodeBytes
					acc.holders = t.appendCacheHolders(c, acc.holders[:0])
					for _, holder := range acc.holders {
						lane[holder] += struct_
					}
				}
			}
		})
		t.moveLanes.SumInto(foot)
	}
	if t.l0OnModules {
		for i := range foot {
			foot[i] += t.l0Bytes
		}
	}
	for i := range foot {
		m := t.sys.Module(i)
		m.StoreBytes(foot[i] - m.StoredBytes())
	}
}
