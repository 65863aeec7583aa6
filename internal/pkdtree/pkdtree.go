// Package pkdtree implements a parallel kd-tree with batch updates in the
// style of Pkd-tree (Men et al., SIGMOD'25), the second shared-memory
// baseline in the paper's evaluation.
//
// Unlike the zd-tree's spatial-median splits, the kd-tree uses
// object-median partitioning: each internal node splits its points at the
// median coordinate along the dimension of largest spread, giving a
// weight-balanced tree. Batch updates route points to the leaves and
// rebuild any subtree whose weight balance drifts past a threshold — the
// partial-reconstruction scheme Pkd-tree uses to keep updates polylog
// amortized while preserving query balance.
//
// The package is instrumented like internal/zdtree: node visits flow
// through an optional LLC simulator for DRAM-traffic accounting and
// abstract work counters feed the cost model.
package pkdtree

import (
	"fmt"
	"sync/atomic"

	"pimzdtree/internal/geom"
	"pimzdtree/internal/memsim"
	"pimzdtree/internal/parallel"
)

// DefaultLeafCap is the default maximum number of points per leaf.
const DefaultLeafCap = 16

// imbalanceRatio is the weight-balance invariant: a child may hold at most
// this fraction of its parent's points before the parent is rebuilt.
const imbalanceRatio = 0.7

// Modeled structure sizes for traffic accounting.
const (
	InternalNodeBytes = 56
	LeafHeaderBytes   = 24
	PointBytes        = 16
)

// Config configures a Tree.
type Config struct {
	Dims    uint8
	LeafCap int

	// Instrumentation, as in zdtree.Config. Every batch runs serially, so
	// the counters are schedule-independent.
	Cache *memsim.Cache
	Alloc *memsim.Allocator
	Work  *atomic.Int64
	Chase *atomic.Int64
}

func (c *Config) fill() {
	if c.LeafCap == 0 {
		c.LeafCap = DefaultLeafCap
	}
	if c.Alloc == nil {
		c.Alloc = memsim.NewAllocator()
	}
	if c.Work == nil {
		c.Work = new(atomic.Int64)
	}
	if c.Chase == nil {
		c.Chase = new(atomic.Int64)
	}
	if c.Dims < 2 || c.Dims > geom.MaxDims {
		panic(fmt.Sprintf("pkdtree: unsupported dimensionality %d", c.Dims))
	}
}

// Tree is a batch-dynamic parallel kd-tree. Concurrent reads are safe;
// updates must be externally serialized.
type Tree struct {
	cfg  Config
	root *node
}

// node is a kd-tree node; leaves have left == nil.
type node struct {
	left, right *node
	dim         uint8  // split dimension (internal)
	split       uint32 // split coordinate: left child holds coords <= split
	size        int
	box         geom.Box // tight bounding box of the subtree's points

	pts  []geom.Point // leaf payload
	addr uint64
}

func (n *node) isLeaf() bool { return n.left == nil }

// New builds a kd-tree over points (which may be empty). The slice is
// consumed (reordered) by median partitioning; pass a copy to keep it.
func New(cfg Config, points []geom.Point) *Tree {
	cfg.fill()
	t := &Tree{cfg: cfg}
	parallel.For(len(points), func(i int) {
		if points[i].Dims != cfg.Dims {
			panic(fmt.Sprintf("pkdtree: point dims %d != tree dims %d", points[i].Dims, cfg.Dims))
		}
	})
	if len(points) > 0 {
		t.root = t.build(points)
	}
	return t
}

// build constructs a weight-balanced subtree over pts, reordering it.
func (t *Tree) build(pts []geom.Point) *node {
	box := geom.BoxAround(pts)
	t.cfg.Work.Add(int64(len(pts)) * int64(t.cfg.Dims))
	return t.buildBoxed(pts, box)
}

// stream charges a streaming batch pass through the LLC (fresh synthetic
// addresses so the bytes reach DRAM once), plus compute work.
func (t *Tree) stream(bytes, work int64) {
	t.cfg.Work.Add(work)
	if t.cfg.Cache != nil && bytes > 0 {
		base := t.cfg.Alloc.Alloc(int(bytes))
		t.cfg.Cache.Access(base, int(bytes), true)
	}
}

func (t *Tree) buildBoxed(pts []geom.Point, box geom.Box) *node {
	if len(pts) <= t.cfg.LeafCap {
		return t.newLeaf(pts, box)
	}
	dim := widestDim(box)
	// Degenerate spread on the widest dimension means all points are
	// identical: keep them as a (possibly over-full) leaf of duplicates.
	if box.Lo.Coords[dim] == box.Hi.Coords[dim] {
		return t.newLeaf(pts, box)
	}
	mid := len(pts) / 2
	quickselect(pts, mid, dim)
	// The median selection and re-partition stream the point payload at
	// every level of the build: the object-median price zd-trees avoid.
	t.stream(int64(len(pts))*PointBytes*2, int64(len(pts))*6)
	splitVal := pts[mid-1].Coords[dim]
	// Group all coordinates equal to the median cleanly: left holds
	// coords <= splitVal, right the rest. If every point lands left (the
	// median equals the max), split just below the max instead — the
	// positive spread guarantees both sides are then nonempty.
	cut := partitionAt(pts, dim, splitVal)
	if cut == len(pts) {
		splitVal = box.Hi.Coords[dim] - 1
		cut = partitionAt(pts, dim, splitVal)
	}
	t.cfg.Work.Add(int64(len(pts)) * 2)
	n := &node{dim: dim, split: splitVal, size: len(pts), box: box}
	n.addr = t.cfg.Alloc.Alloc(InternalNodeBytes)
	n.left = t.build(pts[:cut])
	n.right = t.build(pts[cut:])
	return n
}

func (t *Tree) newLeaf(pts []geom.Point, box geom.Box) *node {
	n := &node{size: len(pts), box: box, pts: append([]geom.Point(nil), pts...)}
	n.addr = t.cfg.Alloc.Alloc(LeafHeaderBytes + len(pts)*PointBytes)
	t.cfg.Work.Add(int64(len(pts)) * 4)
	if t.cfg.Cache != nil {
		t.cfg.Cache.Write(n.addr, LeafHeaderBytes+len(pts)*PointBytes)
	}
	return n
}

// widestDim returns the dimension with the largest extent in box.
func widestDim(box geom.Box) uint8 {
	best, bestSpread := uint8(0), uint64(0)
	for d := uint8(0); d < box.Dims(); d++ {
		spread := uint64(box.Hi.Coords[d]) - uint64(box.Lo.Coords[d])
		if spread > bestSpread {
			best, bestSpread = d, spread
		}
	}
	return best
}

// quickselect reorders pts so pts[:k] hold the k smallest coordinates
// along dim (Hoare partitioning with median-of-three pivots).
func quickselect(pts []geom.Point, k int, dim uint8) {
	lo, hi := 0, len(pts)
	for hi-lo > 16 {
		p := medianOfThree(pts[lo].Coords[dim], pts[(lo+hi)/2].Coords[dim], pts[hi-1].Coords[dim])
		i, j := lo, hi-1
		for i <= j {
			for pts[i].Coords[dim] < p {
				i++
			}
			for pts[j].Coords[dim] > p {
				j--
			}
			if i <= j {
				pts[i], pts[j] = pts[j], pts[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j + 1
		case k >= i:
			lo = i
		default:
			return
		}
	}
	// Insertion sort the remainder.
	for i := lo + 1; i < hi; i++ {
		for j := i; j > lo && pts[j].Coords[dim] < pts[j-1].Coords[dim]; j-- {
			pts[j], pts[j-1] = pts[j-1], pts[j]
		}
	}
}

func medianOfThree(a, b, c uint32) uint32 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}

// partitionAt reorders pts so coordinates <= val along dim come first and
// returns the boundary index.
func partitionAt(pts []geom.Point, dim uint8, val uint32) int {
	i := 0
	for j := range pts {
		if pts[j].Coords[dim] <= val {
			pts[i], pts[j] = pts[j], pts[i]
			i++
		}
	}
	return i
}

// touch charges a node access to the instrumentation.
func (t *Tree) touch(n *node, bytes int, dependent bool) {
	t.cfg.Work.Add(2)
	if t.cfg.Cache == nil {
		return
	}
	misses := t.cfg.Cache.Read(n.addr, bytes)
	if dependent && misses > 0 {
		t.cfg.Chase.Add(int64(misses))
	}
}

// CheckInvariants verifies structure, sizes, boxes and weight balance.
func (t *Tree) CheckInvariants() error {
	var rec func(n *node) (int, error)
	rec = func(n *node) (int, error) {
		if n == nil {
			return 0, nil
		}
		if n.isLeaf() {
			if len(n.pts) == 0 {
				return 0, fmt.Errorf("empty leaf")
			}
			for _, p := range n.pts {
				if !n.box.Contains(p) {
					return 0, fmt.Errorf("leaf point %v outside box %v", p, n.box)
				}
			}
			if n.size != len(n.pts) {
				return 0, fmt.Errorf("leaf size %d != %d", n.size, len(n.pts))
			}
			return n.size, nil
		}
		if n.left == nil || n.right == nil {
			return 0, fmt.Errorf("internal node with one child")
		}
		if !n.box.ContainsBox(n.left.box) || !n.box.ContainsBox(n.right.box) {
			return 0, fmt.Errorf("child box escapes parent")
		}
		if n.left.box.Hi.Coords[n.dim] > n.split {
			return 0, fmt.Errorf("left child crosses split")
		}
		if n.right.box.Lo.Coords[n.dim] <= n.split {
			return 0, fmt.Errorf("right child crosses split")
		}
		ls, err := rec(n.left)
		if err != nil {
			return 0, err
		}
		rs, err := rec(n.right)
		if err != nil {
			return 0, err
		}
		if n.size != ls+rs {
			return 0, fmt.Errorf("size %d != %d+%d", n.size, ls, rs)
		}
		return n.size, nil
	}
	_, err := rec(t.root)
	return err
}
