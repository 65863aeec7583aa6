package core

import (
	"fmt"
	"slices"

	"pimzdtree/internal/geom"
	"pimzdtree/internal/morton"
	"pimzdtree/internal/parallel"
	"pimzdtree/internal/pim"
)

// updateGrain is the sequential cutoff for the fork-join merge of Alg. 2:
// sub-batches at or below this size are merged serially. Chosen below the
// typical experiment batch (3-40k) so real batches fork a few levels deep,
// and far above goroutine overhead.
const updateGrain = 1024

// updateStats accumulates the physical costs of one update batch, charged
// as the communication rounds of Alg. 2 after the logical merge. The
// per-module lanes are dense (module-indexed) slices and the scalars are
// plain counters, so a fork-join merge can hand each branch its own
// updateStats arena and sum them after the join: int64 addition commutes,
// so the merged totals are byte-identical to the serial walk no matter how
// the branches were scheduled. Each arena also owns the per-goroutine
// scratch (merged-leaf buffer, delete markers, cache-holder list), which
// keeps the forked walk lock- and allocation-free in steady state.
type updateStats struct {
	leafIn    []int64 // point payload bytes delivered per module (step 3a)
	leafWork  []int64 // per-module PIM work for leaf edits and splits
	linkBytes []int64 // parent-child link fixes per module (step 3b)
	syncBytes []int64 // lazy-counter snapshot propagation (step 3e)
	half      []int64 // scratch for the two link-fix rounds (root stats only)
	newNodes  int64
	ops       int64

	// Deferred recorder counters: the serial walk bumped Tree/obs counters
	// inline, which a forked walk cannot do deterministically; they are
	// accumulated here and flushed once after the join.
	syncs      int64 // lazy-counter snapshot syncs (Tree.counterSyncs)
	leafSplits int64

	// Per-goroutine scratch owned by this arena.
	mergedKeys []uint64     // leaf-merge buffer (insertIntoLeaf)
	mergedPts  []geom.Point // its points, in key order
	used       []bool       // matched-batch markers (deleteFromLeaf)
	holderBuf  []int        // appendCacheHolders scratch (counter propagation)
}

// reset sizes every per-module lane to p and zeroes the accumulators (the
// scratch buffers keep their capacity).
func (st *updateStats) reset(p int) {
	if cap(st.leafIn) < p {
		st.leafIn = make([]int64, p)
		st.leafWork = make([]int64, p)
		st.linkBytes = make([]int64, p)
		st.syncBytes = make([]int64, p)
		st.half = make([]int64, p)
	}
	st.leafIn = st.leafIn[:p]
	st.leafWork = st.leafWork[:p]
	st.linkBytes = st.linkBytes[:p]
	st.syncBytes = st.syncBytes[:p]
	st.half = st.half[:p]
	for m := 0; m < p; m++ {
		st.leafIn[m] = 0
		st.leafWork[m] = 0
		st.linkBytes[m] = 0
		st.syncBytes[m] = 0
		st.half[m] = 0
	}
	st.newNodes = 0
	st.ops = 0
	st.syncs = 0
	st.leafSplits = 0
}

// merge folds a joined branch's arena into st, lane by lane in module
// order. Called after parallel.Do joins, left branch first, so the merge
// order is fixed; the sums equal the serial walk's in any case.
func (st *updateStats) merge(o *updateStats) {
	for m := range st.leafIn {
		st.leafIn[m] += o.leafIn[m]
		st.leafWork[m] += o.leafWork[m]
		st.linkBytes[m] += o.linkBytes[m]
		st.syncBytes[m] += o.syncBytes[m]
	}
	st.newNodes += o.newNodes
	st.syncs += o.syncs
	st.leafSplits += o.leafSplits
}

// resetUpdateStats returns the Tree-owned root update accumulator with
// every per-module lane sized to P and zeroed.
func (t *Tree) resetUpdateStats() *updateStats {
	t.upStats.reset(t.P())
	return &t.upStats
}

// getArena pops (or creates) a fork-branch accumulator arena, reset for P
// modules. Arenas are recycled through a Tree-owned freelist, so a warmed
// tree forks without allocating.
func (t *Tree) getArena() *updateStats {
	t.arenaMu.Lock()
	var st *updateStats
	if n := len(t.arenaFree); n > 0 {
		st = t.arenaFree[n-1]
		t.arenaFree = t.arenaFree[:n-1]
	}
	t.arenaMu.Unlock()
	if st == nil {
		st = new(updateStats)
	}
	st.reset(t.P())
	return st
}

// putArena returns a merged arena to the freelist.
func (t *Tree) putArena(st *updateStats) {
	t.arenaMu.Lock()
	t.arenaFree = append(t.arenaFree, st)
	t.arenaMu.Unlock()
}

// forkMerge reports whether a sub-batch of n keys should fork.
func forkMerge(n int) bool {
	return n > updateGrain && parallel.Workers() > 1
}

// flushUpdateCounters publishes the deferred per-batch counters after the
// join. The guards keep counter-registry contents identical to the serial
// walk, which only created an entry when the first event fired.
func (t *Tree) flushUpdateCounters(st *updateStats) {
	if st.syncs > 0 {
		t.counterSyncs += st.syncs
		t.sys.Recorder().Add("lazy-counter-syncs", st.syncs)
	}
	if st.leafSplits > 0 {
		t.sys.Recorder().Add("leaf-splits", st.leafSplits)
	}
}

// moduleOf returns the module holding n's master, or -1 for CPU-resident
// L0 nodes.
func (t *Tree) moduleOf(n *Node) int {
	if n.Chunk != nil {
		return n.Chunk.Module
	}
	if t.l0OnModules {
		return 0 // owner-of-record for bookkeeping; replicas get broadcasts
	}
	return -1
}

// Insert adds a batch of points (Alg. 2). The batch is searched (step 1,
// priced as a full push-pull search), merged into the logical tree with
// exact master counters and lazy snapshots (steps 2, 3a, 3b, 3e), and the
// layout pass applies cache modification and promotion/demotion rounds
// (steps 3c, 3d).
func (t *Tree) Insert(points []geom.Point) {
	if len(points) == 0 {
		return
	}
	rec := t.sys.Recorder()
	rec.BeginOp("insert")
	defer rec.EndOp()

	defer t.trimScratch()

	st := t.resetUpdateStats()
	st.ops = int64(len(points))
	if t.root == nil {
		t.root = t.bulkBuild(points, "prepare-batch", "merge")
		t.markNew(t.root)
		st.newNodes = int64(len(points))
	} else {
		rec.BeginPhase("prepare-batch")
		b := t.updateBatch(points)
		rec.EndPhase()

		// Step 1: SEARCH(Q) — prices the search rounds and yields the traces.
		rec.BeginPhase("pilot-search")
		t.searchKeys(b.keys, searchOpts{})
		rec.EndPhase()

		rec.BeginPhase("merge")
		t.root = t.insertRec(t.root, b, st)
		rec.EndPhase()
	}
	t.flushUpdateCounters(st)
	rec.BeginPhase("update-rounds")
	t.chargeUpdateRounds(st)
	rec.EndPhase()
	t.relayout()
	t.epoch.Add(1)
}

// updateBatch is sortBatch on the Tree-owned update scratch: the sorted
// keys land in keyBuf, where the pilot search reads them.
func (t *Tree) updateBatch(points []geom.Point) batch {
	n := len(points)
	t.noteScratch(n)
	if cap(t.keyBuf) < n {
		t.keyBuf = make([]uint64, n)
	}
	if cap(t.idxBuf) < n {
		t.idxBuf = make([]uint32, n)
	}
	return t.sortBatch(points, t.keyBuf[:n], t.idxBuf[:n], &t.idxSorter)
}

// markNew flags a freshly built subtree as dirty at its root (the layout
// diff walks chunks, so one flag per new region suffices) — and counts it.
func (t *Tree) markNew(n *Node) {
	n.dirty = true
}

// insertRec merges the sorted batch into the subtree at n. Left/right
// recursions cover disjoint subtrees and disjoint sub-batches, so they
// fork (binary fork-join, as the paper's Alg. 2 divide-and-conquer) once
// the sub-batch exceeds updateGrain; the forked branch accumulates into
// its own arena, merged deterministically after the join. Every node's
// counters are still touched by exactly one goroutine — the one that owns
// its frame — so per-node state needs no synchronization.
func (t *Tree) insertRec(n *Node, b batch, st *updateStats) *Node {
	if b.len() == 0 {
		return n
	}
	// Divergence from n's prefix (minimum attained at the sorted ends).
	dp := uint(n.PrefixLen)
	if l := t.cplWithNode(b.keys[0], n); l < dp {
		dp = l
	}
	if l := t.cplWithNode(b.keys[b.len()-1], n); l < dp {
		dp = l
	}
	if dp < uint(n.PrefixLen) {
		// Split the compressed edge above n (Alg. 2 step 2c): a new
		// internal node at the divergence level adopts n on one side and
		// a fresh subtree on the other. The batch keys that stay on n's
		// side recurse (they may diverge deeper; dedup of identical new
		// nodes — step 2d — falls out of the batch recursion, which
		// creates each node once).
		bit := t.keyBits - 1 - dp
		split := splitAtBit(b.keys, bit)
		nodeBit := morton.BitAt(n.Key, bit)
		sameSide, otherSide := b.slice(0, split), b.slice(split, b.len())
		if nodeBit != 0 {
			sameSide, otherSide = otherSide, sameSide
		}
		if otherSide.len() == 0 {
			return t.insertRec(n, sameSide, st)
		}
		parent := &Node{
			Key:       n.Key,
			PrefixLen: uint8(dp),
			Box:       morton.PrefixBox(n.Key, dp, t.cfg.Dims),
			Layer:     layerNew,
			dirty:     true,
		}
		st.newNodes++
		// Captured before the recursion: the sub-merge may refresh n in
		// place (detaching it from its chunk), but the new sibling subtree
		// is materialized on the module that held n when the batch arrived.
		mod := nonNeg(t.moduleOf(n))
		st.linkBytes[mod] += linkMsgBytes
		var same, other *Node
		if sameSide.len() > 0 && forkMerge(otherSide.len()) {
			same, other = t.insertSplitForked(n, sameSide, otherSide, st)
		} else {
			same = t.insertRec(n, sameSide, st)
			other = t.buildLogical(otherSide)
		}
		t.markNew(other)
		st.newNodes += int64(otherSide.len())
		st.leafIn[mod] += int64(otherSide.len()) * pointBytes
		if nodeBit == 0 {
			parent.Left, parent.Right = same, other
		} else {
			parent.Left, parent.Right = other, same
		}
		parent.Size = parent.Left.Size + parent.Right.Size
		parent.SC = parent.Size
		return parent
	}

	if n.IsLeaf() {
		return t.insertIntoLeaf(n, b, st)
	}

	// Masters on the path update their exact size; the lazy snapshot
	// syncs only when the layer window is exceeded (step 3e).
	t.applyDelta(n, int64(b.len()), st)
	bit := t.splitBit(n)
	split := splitAtBit(b.keys, bit)
	if split > 0 && split < b.len() && forkMerge(b.len()) {
		t.insertForked(n, b, split, st)
		return n
	}
	if split > 0 {
		n.Left = t.insertRec(n.Left, b.slice(0, split), st)
	}
	if split < b.len() {
		n.Right = t.insertRec(n.Right, b.slice(split, b.len()), st)
	}
	return n
}

// insertForked runs the two insertRec branches as a binary fork, the right
// branch on a fresh arena merged after the join. Separate function for the
// same escape-analysis reason as deleteForked.
func (t *Tree) insertForked(n *Node, b batch, split int, st *updateStats) {
	st2 := t.getArena()
	parallel.Do(
		func() { n.Left = t.insertRec(n.Left, b.slice(0, split), st) },
		func() { n.Right = t.insertRec(n.Right, b.slice(split, b.len()), st2) },
	)
	st.merge(st2)
	t.putArena(st2)
}

// insertSplitForked overlaps the sub-merge into the existing node with the
// construction of the fresh sibling subtree during an edge split.
// buildLogical touches no accumulator, so both branches share st.
func (t *Tree) insertSplitForked(n *Node, sameSide, otherSide batch, st *updateStats) (same, other *Node) {
	parallel.Do(
		func() { same = t.insertRec(n, sameSide, st) },
		func() { other = t.buildLogical(otherSide) },
	)
	return same, other
}

// insertIntoLeaf merges the sorted batch b into leaf n (Alg. 2 steps
// 2a/2b), splitting overflowing leaves. The merge runs in the arena-owned
// scratch; when the result still fits one leaf, n is refreshed in place
// (reusing its key and lane arrays) into exactly the state a freshly built
// leaf would have, so the fit path allocates nothing in steady state.
func (t *Tree) insertIntoLeaf(n *Node, b batch, st *updateStats) *Node {
	mod := nonNeg(t.moduleOf(n))
	st.leafIn[mod] += int64(b.len()) * pointBytes
	st.leafWork[mod] += int64(len(n.Keys)+b.len()) * 2

	want := len(n.Keys) + b.len()
	if cap(st.mergedKeys) < want {
		st.mergedKeys = make([]uint64, 0, want)
		st.mergedPts = make([]geom.Point, 0, want)
	}
	keys, pts := st.mergedKeys[:0], st.mergedPts[:0]
	i, j := 0, 0
	for i < len(n.Keys) && j < b.len() {
		if n.Keys[i] <= b.keys[j] {
			keys, pts = append(keys, n.Keys[i]), append(pts, n.point(i))
			i++
		} else {
			keys, pts = append(keys, b.keys[j]), append(pts, b.pt(j))
			j++
		}
	}
	for ; i < len(n.Keys); i++ {
		keys, pts = append(keys, n.Keys[i]), append(pts, n.point(i))
	}
	for ; j < b.len(); j++ {
		keys, pts = append(keys, b.keys[j]), append(pts, b.pt(j))
	}
	st.mergedKeys, st.mergedPts = keys, pts
	merged := batch{keys: keys, pts: pts}

	if want <= t.cfg.LeafCap || keys[0] == keys[want-1] {
		t.refreshLeaf(n, merged)
		return n
	}
	// Leaf split: new internal structure (Alg. 2 step 2b/2c).
	replacement := t.buildLogical(merged)
	t.markNew(replacement)
	st.newNodes += int64(b.len()) + 2
	st.linkBytes[mod] += linkMsgBytes
	st.leafSplits++
	return replacement
}

// refreshLeaf rewrites leaf n over the merged payload, field for field what
// newLeaf plus markNew would produce for it (layer unassigned, no chunk,
// dirty, counters exact) — so the layout diff treats the refreshed node
// exactly like a replacement, while the key and lane arrays are reused.
func (t *Tree) refreshLeaf(n *Node, b batch) {
	dims := int(t.cfg.Dims)
	n.Keys = append(n.Keys[:0], b.keys...)
	n.lanes = slices.Grow(n.lanes[:0], b.len()*dims)[:b.len()*dims]
	b.gather(n.lanes, dims)
	n.Key = n.Keys[0]
	n.Size = int64(b.len())
	n.SC = n.Size
	n.Layer = layerNew
	n.Chunk = nil
	n.dirty = true
	n.PrefixLen = t.leafPrefixLen(n.Keys)
	n.Box = morton.PrefixBox(n.Key, uint(n.PrefixLen), t.cfg.Dims)
}

// cplWithNode caps the common prefix length of key with n at n's prefix.
func (t *Tree) cplWithNode(key uint64, n *Node) uint {
	l := morton.CommonPrefixLen(key, n.Key, int(t.cfg.Dims))
	if l > uint(n.PrefixLen) {
		return uint(n.PrefixLen)
	}
	return l
}

// narrowToPrefix returns the sub-batch of b whose keys share n's z-order
// prefix (a contiguous range, located by binary search).
func (t *Tree) narrowToPrefix(b batch, n *Node) batch {
	if n.PrefixLen == 0 {
		return b
	}
	keys := b.keys
	shift := t.keyBits - uint(n.PrefixLen)
	base := n.Key >> shift << shift
	top := base | (uint64(1)<<shift - 1)
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if keys[mid] < base {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	start := lo
	lo, hi = start, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if keys[mid] <= top {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return b.slice(start, lo)
}

func nonNeg(m int) int {
	if m < 0 {
		return 0
	}
	return m
}

// chargeUpdateRounds prices Alg. 2 steps 2-3: one round of leaf
// modification, two rounds of link fixing, and the counter propagation.
func (t *Tree) chargeUpdateRounds(st *updateStats) {
	// Step 2 + 3a: deliver points, edit leaves.
	t.roundOverModuleBytes(st.leafIn, st.leafWork, resultMsgBytes)
	// Step 3b: link fixing in two rounds (reserve, then connect).
	for m, b := range st.linkBytes {
		st.half[m] = (b + 1) / 2
	}
	t.roundOverModuleBytes(st.half, nil, 0)
	t.roundOverModuleBytes(st.half, nil, 0)
	// Step 3e: propagate the lazy-counter snapshots that fired.
	t.roundOverModuleBytes(st.syncBytes, nil, 0)
	// CPU-side batch preprocessing (dedup, grouping, trace bookkeeping).
	t.sys.CPUPhase(st.ops*8, st.ops*pointBytes, 0)
}

// roundOverModuleBytes runs one BSP round delivering recvBytes to each
// module (dense, module-indexed), charging the optional per-module work and
// a per-module reply. The round is skipped when no module has traffic or
// work; the active list is ascending by construction.
func (t *Tree) roundOverModuleBytes(recvBytes, work []int64, replyBytes int64) {
	active := t.activeBuf[:0]
	for m := range recvBytes {
		if recvBytes[m] > 0 || (work != nil && work[m] > 0) {
			active = append(active, m)
		}
	}
	t.activeBuf = active
	if len(active) == 0 {
		return
	}
	t.sys.Round(active, func(m *pim.Module) {
		if b := recvBytes[m.ID]; b > 0 {
			m.Recv(b)
			m.Work(b / 8)
		}
		if work != nil {
			if w := work[m.ID]; w > 0 {
				m.Work(w)
			}
		}
		if replyBytes > 0 {
			m.Send(replyBytes)
		}
	})
}

// Delete removes one instance of each given point (absent points are
// ignored). The protocol mirrors Insert: search, local leaf edits, link
// fixes for recompressed paths, lazy-counter propagation, demotion rounds.
func (t *Tree) Delete(points []geom.Point) {
	if len(points) == 0 || t.root == nil {
		return
	}
	rec := t.sys.Recorder()
	rec.BeginOp("delete")
	defer rec.EndOp()

	defer t.trimScratch()

	rec.BeginPhase("prepare-batch")
	b := t.updateBatch(points)
	rec.EndPhase()
	rec.BeginPhase("pilot-search")
	t.searchKeys(b.keys, searchOpts{})
	rec.EndPhase()

	st := t.resetUpdateStats()
	st.ops = int64(b.len())
	rec.BeginPhase("merge")
	t.root, _ = t.deleteRec(t.root, b, st)
	rec.EndPhase()
	t.flushUpdateCounters(st)
	rec.BeginPhase("update-rounds")
	t.chargeUpdateRounds(st)
	rec.EndPhase()
	t.relayout()
	t.epoch.Add(1)
}

// deleteRec removes matching points below n, recompressing single-child
// paths, and returns the new subtree (nil when emptied) and the number of
// points actually removed. It forks left/right over disjoint subtrees like
// insertRec, with the right branch on its own arena.
func (t *Tree) deleteRec(n *Node, b batch, st *updateStats) (*Node, int64) {
	if n == nil || b.len() == 0 {
		return n, 0
	}
	// Keys outside n's prefix cannot be stored below n. They must be
	// dropped BEFORE the bit partition: the partition's binary search
	// assumes the split bit is monotone over the sorted batch, which only
	// holds for keys sharing the node's prefix. (Found by FuzzBatchOps:
	// a diverging phantom key misroutes its sorted neighbors.)
	b = t.narrowToPrefix(b, n)
	if b.len() == 0 {
		return n, 0
	}
	if n.IsLeaf() {
		return t.deleteFromLeaf(n, b, st)
	}
	bit := t.splitBit(n)
	split := splitAtBit(b.keys, bit)
	var removed int64
	if split > 0 && split < b.len() && forkMerge(b.len()) {
		removed = t.deleteForked(n, b, split, st)
	} else {
		if split > 0 {
			var r int64
			n.Left, r = t.deleteRec(n.Left, b.slice(0, split), st)
			removed += r
		}
		if split < b.len() {
			var r int64
			n.Right, r = t.deleteRec(n.Right, b.slice(split, b.len()), st)
			removed += r
		}
	}
	if n.Left == nil || n.Right == nil {
		// Path recompression: the survivor replaces n (link fix).
		survivor := n.Left
		if survivor == nil {
			survivor = n.Right
		}
		if survivor != nil {
			survivor.dirty = true
			st.linkBytes[nonNeg(t.moduleOf(survivor))] += linkMsgBytes
		}
		return survivor, removed
	}
	if removed > 0 {
		t.applyDelta(n, -removed, st)
	}
	return n, removed
}

// deleteForked runs the two deleteRec branches as a binary fork, the
// right branch on a fresh arena merged after the join. It exists as a
// separate function so the closure-captured locals heap-allocate only when
// a fork actually happens, keeping the serial recursion allocation-free.
func (t *Tree) deleteForked(n *Node, b batch, split int, st *updateStats) int64 {
	var removedL, removedR int64
	st2 := t.getArena()
	parallel.Do(
		func() { n.Left, removedL = t.deleteRec(n.Left, b.slice(0, split), st) },
		func() { n.Right, removedR = t.deleteRec(n.Right, b.slice(split, b.len()), st2) },
	)
	st.merge(st2)
	t.putArena(st2)
	return removedL + removedR
}

// deleteFromLeaf removes one stored instance of each matching batch point
// from leaf n, compacting its keys and lanes in place.
func (t *Tree) deleteFromLeaf(n *Node, b batch, st *updateStats) (*Node, int64) {
	mod := nonNeg(t.moduleOf(n))
	st.leafWork[mod] += int64(len(n.Keys)) * 2
	if cap(st.used) < b.len() {
		st.used = make([]bool, b.len())
	}
	used := st.used[:b.len()]
	for j := range used {
		used[j] = false
	}
	// Survivors move down to index keep, lane by lane at the old stride m
	// (keep <= i, so no unread coordinate is overwritten); the lanes close
	// up to the new stride once keep is known.
	m, dims, keep := len(n.Keys), int(t.cfg.Dims), 0
	for i := range m {
		hit := false
		for j, k := range b.keys {
			if !used[j] && k == n.Keys[i] && b.pt(j).Equal(n.point(i)) {
				used[j] = true
				hit = true
				break
			}
		}
		if hit {
			continue
		}
		n.Keys[keep] = n.Keys[i]
		for d := range dims {
			n.lanes[d*m+keep] = n.lanes[d*m+i]
		}
		keep++
	}
	removed := int64(m - keep)
	if removed == 0 {
		return n, 0
	}
	n.dirty = true
	if keep == 0 {
		return nil, removed
	}
	for d := 1; d < dims; d++ {
		copy(n.lanes[d*keep:], n.lanes[d*m:d*m+keep])
	}
	n.Keys = n.Keys[:keep]
	n.lanes = n.lanes[:keep*dims]
	n.Size = int64(keep)
	n.SC = n.Size
	n.PrefixLen = t.leafPrefixLen(n.Keys)
	n.Key = n.Keys[0]
	n.Box = morton.PrefixBox(n.Key, uint(n.PrefixLen), t.cfg.Dims)
	return n, removed
}

// CheckInvariants validates the logical tree structure and layer/chunk
// assignment. Used by tests.
func (t *Tree) CheckInvariants() error {
	if t.root == nil {
		return nil
	}
	var check func(n *Node, parentLayer Layer) (int64, error)
	check = func(n *Node, parentLayer Layer) (int64, error) {
		if n.Layer < parentLayer {
			return 0, errf("layer inversion: %v under %v", n.Layer, parentLayer)
		}
		if n.Layer != L0 && n.Chunk == nil {
			return 0, errf("non-L0 node without chunk")
		}
		if n.Layer == L0 && n.Chunk != nil {
			return 0, errf("L0 node with chunk")
		}
		if n.IsLeaf() {
			if len(n.Keys) == 0 {
				return 0, errf("empty leaf")
			}
			if int64(len(n.Keys)) != n.Size {
				return 0, errf("leaf size %d != %d", n.Size, len(n.Keys))
			}
			if len(n.lanes) != len(n.Keys)*int(t.cfg.Dims) {
				return 0, errf("leaf lane length %d != %d points x %d dims", len(n.lanes), len(n.Keys), t.cfg.Dims)
			}
			for i, k := range n.Keys {
				if morton.EncodePoint(n.point(i)) != k {
					return 0, errf("leaf key/point mismatch at point %d", i)
				}
				if i > 0 && k < n.Keys[i-1] {
					return 0, errf("leaf keys unsorted")
				}
				if !t.sharesPrefix(k, n) {
					return 0, errf("leaf key outside prefix")
				}
			}
			if len(n.Keys) > t.cfg.LeafCap && n.Keys[0] != n.Keys[len(n.Keys)-1] {
				return 0, errf("over-full leaf with distinct keys")
			}
			return n.Size, nil
		}
		if n.Left == nil || n.Right == nil {
			return 0, errf("uncompressed single-child node")
		}
		bit := t.splitBit(n)
		for side, c := range []*Node{n.Left, n.Right} {
			if c.PrefixLen <= n.PrefixLen {
				return 0, errf("child prefix not longer")
			}
			if !t.sharesPrefix(c.Key, n) {
				return 0, errf("child outside parent prefix")
			}
			if morton.BitAt(c.Key, bit) != uint64(side) {
				return 0, errf("child on wrong side")
			}
		}
		ls, err := check(n.Left, n.Layer)
		if err != nil {
			return 0, err
		}
		rs, err := check(n.Right, n.Layer)
		if err != nil {
			return 0, err
		}
		if n.Size != ls+rs {
			return 0, errf("size %d != %d+%d", n.Size, ls, rs)
		}
		return n.Size, nil
	}
	_, err := check(t.root, L0)
	return err
}

func errf(format string, args ...interface{}) error {
	return fmt.Errorf(format, args...)
}

// Rebuild reconstructs the index from scratch over its current contents:
// the whole point set is hauled up to the host, re-sorted, re-built and
// re-distributed. This is the maintenance style of the reconstruction-based
// prior design the paper's §2.2 argues against ("its additional round
// complexity incurs substantial latency"); it exists here so the bench
// harness can measure that argument (the `recon` experiment). Batch-dynamic
// updates (Insert/Delete) never need it.
func (t *Tree) Rebuild() {
	if t.root == nil {
		return
	}
	rec := t.sys.Recorder()
	rec.BeginOp("rebuild")
	defer rec.EndOp()
	pts := t.Points()
	// Haul every point up through the channels.
	total, _ := t.sys.StoredBytesTotal()
	seen := make([]bool, t.P())
	for _, c := range t.chunks {
		seen[c.Module] = true
	}
	modules := t.activeBuf[:0]
	for m, s := range seen {
		if s {
			modules = append(modules, m)
		}
	}
	t.activeBuf = modules
	t.sys.Round(modules, func(m *pim.Module) {
		m.Send(m.StoredBytes())
	})
	t.sys.CPUPhase(int64(len(pts))*30, total, 0)

	// Re-sort and re-build on the host.
	t.root = t.bulkBuild(pts, "", "")
	t.markNew(t.root)

	// Re-distribute: all chunks are new, so the layout pass ships
	// everything back out.
	t.chunks = make(map[uint64]*Chunk)
	t.bootstrapped = false
	t.relayout()
	t.epoch.Add(1)
}
