package pkdtree

import "pimzdtree/internal/geom"

// Structural probes the tests read; the index itself never needs them.

// Size returns the number of stored points.
func (t *Tree) Size() int {
	if t.root == nil {
		return 0
	}
	return t.root.size
}

// Height returns the tree height in edges.
func (t *Tree) Height() int {
	var rec func(n *node) int
	rec = func(n *node) int {
		if n == nil || n.isLeaf() {
			return 0
		}
		return 1 + max(rec(n.left), rec(n.right))
	}
	return rec(t.root)
}

// Points returns all stored points in tree order.
func (t *Tree) Points() []geom.Point {
	var out []geom.Point
	var rec func(n *node)
	rec = func(n *node) {
		if n == nil {
			return
		}
		if n.isLeaf() {
			out = append(out, n.pts...)
			return
		}
		rec(n.left)
		rec(n.right)
	}
	rec(t.root)
	return out
}

// contains reports whether tr stores a point equal to p: a box count over
// the degenerate box [p, p].
func contains(tr *Tree, p geom.Point) bool {
	return tr.BoxCount(geom.NewBox(p, p)) > 0
}
