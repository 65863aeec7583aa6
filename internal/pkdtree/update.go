package pkdtree

import (
	"pimzdtree/internal/geom"
	"pimzdtree/internal/parallel"
)

// Insert adds a batch of points. Points are routed down the existing
// splits; any subtree whose weight balance drifts past
// imbalanceRatio (or any overflowing leaf) is rebuilt from its points —
// the partial-reconstruction scheme of Pkd-tree.
func (t *Tree) Insert(points []geom.Point) {
	if len(points) == 0 {
		return
	}
	parallel.For(len(points), func(i int) {
		if points[i].Dims != t.cfg.Dims {
			panic("pkdtree: point dims mismatch")
		}
	})
	batch := append([]geom.Point(nil), points...)
	if t.root == nil {
		t.root = t.build(batch)
		return
	}
	t.root = t.insertRec(t.root, batch)
}

func (t *Tree) insertRec(n *node, batch []geom.Point) *node {
	if len(batch) == 0 {
		return n
	}
	t.touch(n, InternalNodeBytes, true)
	if n.isLeaf() {
		merged := append(append([]geom.Point(nil), n.pts...), batch...)
		if len(merged) <= t.cfg.LeafCap || allEqual(merged) {
			box := geom.BoxAround(merged)
			t.cfg.Work.Add(int64(len(merged)) * int64(t.cfg.Dims))
			return t.newLeaf(merged, box)
		}
		return t.build(merged)
	}
	newSize := n.size + len(batch)
	// Weight-balance check before descending: rebuilding here re-medians
	// the whole subtree.
	cut := partitionAt(batch, n.dim, n.split)
	leftSize := n.left.size + cut
	rightSize := n.right.size + (len(batch) - cut)
	if float64(max(leftSize, rightSize)) > imbalanceRatio*float64(newSize) {
		pts := make([]geom.Point, 0, newSize)
		t.collect(n, &pts)
		pts = append(pts, batch...)
		t.cfg.Work.Add(int64(len(pts)))
		return t.build(pts)
	}
	left, right := batch[:cut], batch[cut:]
	if len(left) > 0 {
		n.left = t.insertRec(n.left, left)
	}
	if len(right) > 0 {
		n.right = t.insertRec(n.right, right)
	}
	n.size = n.left.size + n.right.size
	n.box = n.left.box.Union(n.right.box)
	t.writeBack(n)
	return n
}

func allEqual(pts []geom.Point) bool {
	for _, p := range pts[1:] {
		if !p.Equal(pts[0]) {
			return false
		}
	}
	return true
}

// collect appends all points under n to out.
func (t *Tree) collect(n *node, out *[]geom.Point) {
	if n == nil {
		return
	}
	if n.isLeaf() {
		t.touch(n, LeafHeaderBytes+len(n.pts)*PointBytes, false)
		*out = append(*out, n.pts...)
		return
	}
	t.touch(n, InternalNodeBytes, false)
	t.collect(n.left, out)
	t.collect(n.right, out)
}

func (t *Tree) writeBack(n *node) {
	t.cfg.Work.Add(2)
	if t.cfg.Cache != nil {
		t.cfg.Cache.Write(n.addr, 16)
	}
}

// Delete removes one instance of each given point; absent points are
// ignored. A subtree that loses weight balance is rebuilt.
func (t *Tree) Delete(points []geom.Point) {
	if len(points) == 0 || t.root == nil {
		return
	}
	batch := append([]geom.Point(nil), points...)
	t.root = t.deleteRec(t.root, batch)
}

func (t *Tree) deleteRec(n *node, batch []geom.Point) *node {
	if n == nil || len(batch) == 0 {
		return n
	}
	t.touch(n, InternalNodeBytes, true)
	if n.isLeaf() {
		return t.deleteFromLeaf(n, batch)
	}
	cut := partitionAt(batch, n.dim, n.split)
	left, right := batch[:cut], batch[cut:]
	if len(left) > 0 {
		n.left = t.deleteRec(n.left, left)
	}
	if len(right) > 0 {
		n.right = t.deleteRec(n.right, right)
	}
	if n.left == nil {
		return n.right
	}
	if n.right == nil {
		return n.left
	}
	n.size = n.left.size + n.right.size
	n.box = n.left.box.Union(n.right.box)
	t.writeBack(n)
	// Rebalance after heavy one-sided deletion.
	if float64(max(n.left.size, n.right.size)) > imbalanceRatio*float64(n.size) {
		pts := make([]geom.Point, 0, n.size)
		t.collect(n, &pts)
		t.cfg.Work.Add(int64(len(pts)))
		return t.build(pts)
	}
	return n
}

func (t *Tree) deleteFromLeaf(n *node, batch []geom.Point) *node {
	t.touch(n, LeafHeaderBytes+len(n.pts)*PointBytes, false)
	used := make([]bool, len(batch))
	keep := n.pts[:0]
	for _, p := range n.pts {
		removed := false
		for j := range batch {
			if !used[j] && batch[j].Equal(p) {
				used[j] = true
				removed = true
				break
			}
		}
		if !removed {
			keep = append(keep, p)
		}
	}
	t.cfg.Work.Add(int64(len(n.pts)))
	if len(keep) == 0 {
		return nil
	}
	n.pts = keep
	n.size = len(keep)
	n.box = geom.BoxAround(keep)
	return n
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
