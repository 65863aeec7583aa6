package pkdtree

import (
	"container/heap"

	"pimzdtree/internal/geom"
)

// Neighbor is one kNN result (distance squared for L2, as in geom.Metric).
type Neighbor struct {
	Point geom.Point
	Dist  uint64
}

type neighborHeap []Neighbor

func (h neighborHeap) Len() int            { return len(h) }
func (h neighborHeap) Less(i, j int) bool  { return h[i].Dist > h[j].Dist }
func (h neighborHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *neighborHeap) Push(x interface{}) { *h = append(*h, x.(Neighbor)) }
func (h *neighborHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// KNN returns the k nearest neighbors of q sorted by increasing distance.
func (t *Tree) KNN(q geom.Point, k int, metric geom.Metric) []Neighbor {
	if t.root == nil || k <= 0 {
		return nil
	}
	h := make(neighborHeap, 0, k)
	t.knnRec(t.root, q, k, metric, &h)
	out := make([]Neighbor, len(h))
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(&h).(Neighbor)
	}
	return out
}

func (t *Tree) knnRec(n *node, q geom.Point, k int, metric geom.Metric, h *neighborHeap) {
	if n.isLeaf() {
		t.touch(n, LeafHeaderBytes+len(n.pts)*PointBytes, true)
		for _, p := range n.pts {
			d := metric.Dist(p, q)
			t.cfg.Work.Add(int64(p.Dims) * 2)
			if len(*h) < k {
				heap.Push(h, Neighbor{Point: p, Dist: d})
				t.cfg.Work.Add(8)
			} else if d < (*h)[0].Dist {
				(*h)[0] = Neighbor{Point: p, Dist: d}
				heap.Fix(h, 0)
				t.cfg.Work.Add(8)
			}
		}
		return
	}
	t.touch(n, InternalNodeBytes, true)
	first, second := n.left, n.right
	if n.right.box.MinDistTo(q, metric) < n.left.box.MinDistTo(q, metric) {
		first, second = n.right, n.left
	}
	t.cfg.Work.Add(int64(q.Dims) * 4)
	if len(*h) < k || first.box.MinDistTo(q, metric) <= (*h)[0].Dist {
		t.knnRec(first, q, k, metric, h)
	}
	if len(*h) < k || second.box.MinDistTo(q, metric) <= (*h)[0].Dist {
		t.knnRec(second, q, k, metric, h)
	}
}

// KNNBatch answers a batch of kNN queries, one after another.
func (t *Tree) KNNBatch(qs []geom.Point, k int, metric geom.Metric) [][]Neighbor {
	defer t.beginOp("knn")()
	out := make([][]Neighbor, len(qs))
	for i := range out {
		out[i] = t.KNN(qs[i], k, metric)
	}
	return out
}

// BoxCount returns the number of stored points inside box.
func (t *Tree) BoxCount(box geom.Box) int {
	return t.boxCountRec(t.root, box)
}

func (t *Tree) boxCountRec(n *node, box geom.Box) int {
	if n == nil {
		return 0
	}
	t.cfg.Work.Add(int64(box.Dims()) * 2)
	if !n.box.Intersects(box) {
		return 0
	}
	if box.ContainsBox(n.box) {
		return n.size
	}
	if n.isLeaf() {
		t.touch(n, LeafHeaderBytes+len(n.pts)*PointBytes, true)
		count := 0
		for _, p := range n.pts {
			t.cfg.Work.Add(int64(p.Dims))
			if box.Contains(p) {
				count++
			}
		}
		return count
	}
	t.touch(n, InternalNodeBytes, true)
	return t.boxCountRec(n.left, box) + t.boxCountRec(n.right, box)
}

// BoxFetch returns all stored points inside box.
func (t *Tree) BoxFetch(box geom.Box) []geom.Point {
	var out []geom.Point
	t.boxFetchRec(t.root, box, &out)
	return out
}

func (t *Tree) boxFetchRec(n *node, box geom.Box, out *[]geom.Point) {
	if n == nil {
		return
	}
	t.cfg.Work.Add(int64(box.Dims()) * 2)
	if !n.box.Intersects(box) {
		return
	}
	if n.isLeaf() {
		t.touch(n, LeafHeaderBytes+len(n.pts)*PointBytes, true)
		if box.ContainsBox(n.box) {
			*out = append(*out, n.pts...)
			t.cfg.Work.Add(int64(len(n.pts)))
			return
		}
		for _, p := range n.pts {
			t.cfg.Work.Add(int64(p.Dims))
			if box.Contains(p) {
				*out = append(*out, p)
			}
		}
		return
	}
	t.touch(n, InternalNodeBytes, true)
	if box.ContainsBox(n.box) {
		t.collect(n, out)
		return
	}
	t.boxFetchRec(n.left, box, out)
	t.boxFetchRec(n.right, box, out)
}

// BoxCountBatch answers a batch of count queries.
func (t *Tree) BoxCountBatch(boxes []geom.Box) []int {
	defer t.beginOp("box-count")()
	out := make([]int, len(boxes))
	for i := range out {
		out[i] = t.BoxCount(boxes[i])
	}
	return out
}

// BoxFetchBatch answers a batch of fetch queries.
func (t *Tree) BoxFetchBatch(boxes []geom.Box) [][]geom.Point {
	defer t.beginOp("box-fetch")()
	out := make([][]geom.Point, len(boxes))
	for i := range out {
		out[i] = t.BoxFetch(boxes[i])
	}
	return out
}
