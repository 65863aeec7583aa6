package zdtree

import (
	"pimzdtree/internal/geom"
	"pimzdtree/internal/morton"
)

// Insert adds a batch of points to the tree. Duplicate points (same
// coordinates) are stored once per insertion: the tree is a multiset, as
// in the reference implementation. Cost: O(k log(1 + n/k)) work for a
// batch of k (Lemma 2.1(iv)).
func (t *Tree) Insert(points []geom.Point) {
	if len(points) == 0 {
		return
	}
	kps := t.makeKeyed(points)
	t.sorter.SortBy(kps, func(kp keyed) uint64 { return kp.key })
	t.chargeSort(len(kps))
	if t.root == nil {
		t.root = t.build(kps)
		return
	}
	t.root = t.insertRec(t.root, kps)
}

// insertRec merges the sorted batch kps into the subtree rooted at n and
// returns the (possibly new) subtree root.
func (t *Tree) insertRec(n *node, kps []keyed) *node {
	if len(kps) == 0 {
		return n
	}
	t.touch(n, InternalNodeBytes, true)
	// Divergence of the batch from n's prefix: since kps is sorted, the
	// minimum common prefix with n.key is attained at one of the ends.
	dp := uint(n.prefixLen)
	if l := t.cplWithNode(kps[0].key, n); l < dp {
		dp = l
	}
	if l := t.cplWithNode(kps[len(kps)-1].key, n); l < dp {
		dp = l
	}
	if dp < uint(n.prefixLen) {
		// Some keys leave n's prefix: introduce an internal node at the
		// divergence level. Keys on n's side recurse into n; the others
		// form fresh subtrees. Because dp is the minimum divergence,
		// both sides at bit `bit` are nonempty only when the batch truly
		// splits; keys agreeing with n at `bit` may still diverge deeper
		// and are handled by recursion.
		bit := t.keyBits() - 1 - dp
		split := splitAtBit(kps, bit)
		nodeBit := morton.BitAt(n.key, bit)
		var sameSide, otherSide []keyed
		if nodeBit == 0 {
			sameSide, otherSide = kps[:split], kps[split:]
		} else {
			otherSide, sameSide = kps[:split], kps[split:]
		}
		if len(otherSide) == 0 {
			// All keys stay on n's side at this bit after all (they
			// diverge from n.key below dp but not at dp; dp was computed
			// against n.key, so this cannot happen — defensive).
			return t.insertRec(n, sameSide)
		}
		parent := &node{
			key:       n.key,
			prefixLen: uint8(dp),
			box:       morton.PrefixBox(n.key, dp, t.cfg.Dims),
		}
		parent.addr = t.cfg.Alloc.Alloc(InternalNodeBytes)
		same := t.insertRec(n, sameSide)
		other := t.build(otherSide)
		if nodeBit == 0 {
			parent.left, parent.right = same, other
		} else {
			parent.left, parent.right = other, same
		}
		parent.size = parent.left.size + parent.right.size
		return parent
	}

	// All batch keys share n's full prefix.
	if n.isLeaf() {
		return t.insertIntoLeaf(n, kps)
	}
	bit := t.keyBits() - 1 - uint(n.prefixLen)
	split := splitAtBit(kps, bit)
	left, right := kps[:split], kps[split:]
	if len(left) > 0 {
		n.left = t.insertRec(n.left, left)
	}
	if len(right) > 0 {
		n.right = t.insertRec(n.right, right)
	}
	n.size = n.left.size + n.right.size
	t.writeBack(n)
	return n
}

// insertIntoLeaf merges sorted kps into leaf n, splitting if it overflows.
func (t *Tree) insertIntoLeaf(n *node, kps []keyed) *node {
	t.touch(n, LeafHeaderBytes+len(n.keys)*PointBytes, false)
	merged := make([]keyed, 0, len(n.keys)+len(kps))
	i, j := 0, 0
	for i < len(n.keys) && j < len(kps) {
		if n.keys[i] <= kps[j].key {
			merged = append(merged, keyed{key: n.keys[i], pt: n.pts[i]})
			i++
		} else {
			merged = append(merged, kps[j])
			j++
		}
	}
	for ; i < len(n.keys); i++ {
		merged = append(merged, keyed{key: n.keys[i], pt: n.pts[i]})
	}
	merged = append(merged, kps[j:]...)
	t.cfg.Work.Add(int64(len(merged)))
	// build handles both the fits-in-leaf and the must-split cases
	// (including all-equal keys, which stay in one leaf).
	return t.build(merged)
}

// cplWithNode returns the common prefix length of key with n's prefix,
// capped at n.prefixLen.
func (t *Tree) cplWithNode(key uint64, n *node) uint {
	l := morton.CommonPrefixLen(key, n.key, int(t.cfg.Dims))
	if l > uint(n.prefixLen) {
		return uint(n.prefixLen)
	}
	return l
}

// writeBack charges the size/box update of an internal node on the update
// path.
func (t *Tree) writeBack(n *node) {
	t.cfg.Work.Add(2)
	if t.cfg.Cache != nil {
		t.cfg.Cache.Write(n.addr, 16)
	}
}

// Delete removes one instance of each given point from the tree. Points
// not present are ignored. Empty leaves are removed and single-child paths
// recompressed, restoring the canonical structure.
func (t *Tree) Delete(points []geom.Point) {
	if len(points) == 0 || t.root == nil {
		return
	}
	kps := t.makeKeyed(points)
	t.sorter.SortBy(kps, func(kp keyed) uint64 { return kp.key })
	t.chargeSort(len(kps))
	t.root = t.deleteRec(t.root, kps)
}

func (t *Tree) deleteRec(n *node, kps []keyed) *node {
	if n == nil || len(kps) == 0 {
		return n
	}
	t.touch(n, InternalNodeBytes, true)
	// Keys outside n's prefix cannot be stored below n, and they must be
	// dropped BEFORE the bit partition: splitAtBit's binary search
	// assumes the split bit is monotone over the sorted batch, which only
	// holds for keys sharing the node's prefix.
	kps = t.narrowToPrefix(kps, n)
	if len(kps) == 0 {
		return n
	}
	if n.isLeaf() {
		return t.deleteFromLeaf(n, kps)
	}
	bit := t.keyBits() - 1 - uint(n.prefixLen)
	split := splitAtBit(kps, bit)
	left, right := kps[:split], kps[split:]
	if len(left) > 0 {
		n.left = t.deleteRec(n.left, left)
	}
	if len(right) > 0 {
		n.right = t.deleteRec(n.right, right)
	}
	// Recompress.
	if n.left == nil {
		return n.right
	}
	if n.right == nil {
		return n.left
	}
	n.size = n.left.size + n.right.size
	t.writeBack(n)
	return n
}

// narrowToPrefix returns the sub-batch of sorted kps whose keys share n's
// z-order prefix (a contiguous range, located by binary search).
func (t *Tree) narrowToPrefix(kps []keyed, n *node) []keyed {
	if n.prefixLen == 0 {
		return kps
	}
	shift := t.keyBits() - uint(n.prefixLen)
	base := n.key >> shift << shift
	top := base | (uint64(1)<<shift - 1)
	lo, hi := 0, len(kps)
	for lo < hi {
		mid := (lo + hi) / 2
		if kps[mid].key < base {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	start := lo
	lo, hi = start, len(kps)
	for lo < hi {
		mid := (lo + hi) / 2
		if kps[mid].key <= top {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return kps[start:lo]
}

// deleteFromLeaf removes one instance of each matching point from leaf n;
// returns nil if the leaf empties.
func (t *Tree) deleteFromLeaf(n *node, kps []keyed) *node {
	t.touch(n, LeafHeaderBytes+len(n.keys)*PointBytes, false)
	used := make([]bool, len(kps))
	keepKeys := n.keys[:0]
	keepPts := n.pts[:0]
	for i := range n.keys {
		removed := false
		for j := range kps {
			if !used[j] && kps[j].key == n.keys[i] && kps[j].pt.Equal(n.pts[i]) {
				used[j] = true
				removed = true
				break
			}
		}
		if !removed {
			keepKeys = append(keepKeys, n.keys[i])
			keepPts = append(keepPts, n.pts[i])
		}
	}
	t.cfg.Work.Add(int64(len(n.keys)))
	if len(keepKeys) == 0 {
		return nil
	}
	n.keys = keepKeys
	n.pts = keepPts
	n.size = len(keepKeys)
	if len(keepKeys) == 1 {
		n.prefixLen = uint8(t.keyBits())
	} else {
		n.prefixLen = uint8(morton.CommonPrefixLen(keepKeys[0], keepKeys[len(keepKeys)-1], int(t.cfg.Dims)))
	}
	n.key = keepKeys[0]
	n.box = morton.PrefixBox(n.key, uint(n.prefixLen), t.cfg.Dims)
	return n
}
