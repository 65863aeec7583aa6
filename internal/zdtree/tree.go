// Package zdtree implements the shared-memory zd-tree of Blelloch & Dobson
// (ALENEX'22): a batch-dynamic space-partitioning index built by splitting
// points on the bits of their z-order (Morton) keys, stored as a compressed
// radix tree (single-child paths merged, empty leaves omitted). After
// compression every internal node has exactly two children and the tree has
// 2n + O(1) nodes.
//
// This package serves two roles in the reproduction: it is one of the two
// state-of-the-art non-PIM baselines in the paper's evaluation, and it
// defines the logical structure that PIM-zd-tree (internal/core)
// distributes across PIM modules.
//
// All operations are instrumented: node visits run through an optional LLC
// simulator (internal/memsim) to count the CPU-DRAM traffic the paper's
// per-element memory traffic metric reports, and abstract work units are
// accumulated for the cost model.
package zdtree

import (
	"fmt"
	"sync/atomic"

	"pimzdtree/internal/geom"
	"pimzdtree/internal/memsim"
	"pimzdtree/internal/morton"
	"pimzdtree/internal/parallel"
)

// DefaultLeafCap is the default maximum number of points per leaf.
const DefaultLeafCap = 16

// Modeled sizes (bytes) of the on-heap structures, used for traffic
// accounting. An internal node holds two pointers, the split metadata,
// a subtree size and a bounding box; a leaf holds a header plus a packed
// array of keys and coordinates.
const (
	InternalNodeBytes = 64
	LeafHeaderBytes   = 32
	PointBytes        = 16 // key (8) + packed coordinates (8, quantized)
)

// Config configures a Tree.
type Config struct {
	Dims    uint8 // 2, 3 or 4
	LeafCap int   // maximum points per leaf (0 = DefaultLeafCap)

	// Instrumentation (all optional). Cache simulates the host LLC and
	// counts DRAM traffic; Alloc provides synthetic node addresses; Work
	// accumulates abstract CPU work units; Chase accumulates dependent
	// cache misses on traversal paths. The LLC simulator's LRU state and
	// the allocator's addresses depend on access order, so every batch
	// runs serially: the counters are the same at any GOMAXPROCS.
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
	if c.Dims < 2 || c.Dims > 4 {
		panic(fmt.Sprintf("zdtree: unsupported dimensionality %d", c.Dims))
	}
}

// Tree is a batch-dynamic zd-tree. It is safe for concurrent reads; batch
// updates must be externally serialized.
type Tree struct {
	cfg  Config
	root *node

	// sorter carries the reusable radix-sort scratch across update batches
	// (updates are externally serialized, so the scratch is never shared).
	sorter parallel.Sorter[keyed]
}

// node is a tree node; leaves have left == nil. The node's z-order prefix
// is the top prefixLen bits of key; for internal nodes the children
// diverge at bit (keyBits - 1 - prefixLen).
type node struct {
	left, right *node
	key         uint64 // representative key (any key in the subtree)
	prefixLen   uint8
	size        int
	box         geom.Box

	// Leaf payload, kept sorted by key.
	keys []uint64
	pts  []geom.Point

	addr uint64 // synthetic address for traffic accounting
}

func (n *node) isLeaf() bool { return n.left == nil }

// New builds a zd-tree over the given points (which may be empty).
// The point slice is not retained; dims must match every point.
func New(cfg Config, points []geom.Point) *Tree {
	cfg.fill()
	t := &Tree{cfg: cfg}
	if len(points) == 0 {
		return t
	}
	kps := t.makeKeyed(points)
	t.sorter.SortBy(kps, func(kp keyed) uint64 { return kp.key })
	t.chargeSort(len(kps))
	t.root = t.build(kps)
	return t
}

type keyed struct {
	key uint64
	pt  geom.Point
}

func (t *Tree) makeKeyed(points []geom.Point) []keyed {
	kps := make([]keyed, len(points))
	parallel.For(len(points), func(i int) {
		if points[i].Dims != t.cfg.Dims {
			panic(fmt.Sprintf("zdtree: point dims %d != tree dims %d", points[i].Dims, t.cfg.Dims))
		}
		kps[i] = keyed{key: morton.EncodePoint(points[i]), pt: points[i]}
	})
	t.cfg.Work.Add(int64(len(points)) * morton.CostFast(t.cfg.Dims))
	return kps
}

func (t *Tree) keyBits() uint { return morton.KeyBits(int(t.cfg.Dims)) }

// newLeaf constructs a leaf from a sorted keyed slice.
func (t *Tree) newLeaf(kps []keyed) *node {
	n := &node{
		key:  kps[0].key,
		size: len(kps),
		keys: make([]uint64, len(kps)),
		pts:  make([]geom.Point, len(kps)),
	}
	for i, kp := range kps {
		n.keys[i] = kp.key
		n.pts[i] = kp.pt
	}
	if len(kps) == 1 {
		n.prefixLen = uint8(t.keyBits())
	} else {
		n.prefixLen = uint8(morton.CommonPrefixLen(kps[0].key, kps[len(kps)-1].key, int(t.cfg.Dims)))
	}
	n.box = morton.PrefixBox(n.key, uint(n.prefixLen), t.cfg.Dims)
	n.addr = t.cfg.Alloc.Alloc(LeafHeaderBytes + len(kps)*PointBytes)
	t.cfg.Work.Add(int64(len(kps)) * 4)
	if t.cfg.Cache != nil {
		t.cfg.Cache.Write(n.addr, LeafHeaderBytes+len(kps)*PointBytes)
	}
	return n
}

// build constructs a subtree over a sorted, non-empty keyed slice.
func (t *Tree) build(kps []keyed) *node {
	first, last := kps[0].key, kps[len(kps)-1].key
	if len(kps) <= t.cfg.LeafCap || first == last {
		return t.newLeaf(kps)
	}
	plen := morton.CommonPrefixLen(first, last, int(t.cfg.Dims))
	bit := t.keyBits() - 1 - plen
	split := splitAtBit(kps, bit)
	n := &node{
		key:       first,
		prefixLen: uint8(plen),
		size:      len(kps),
		box:       morton.PrefixBox(first, plen, t.cfg.Dims),
	}
	n.addr = t.cfg.Alloc.Alloc(InternalNodeBytes)
	if t.cfg.Cache != nil {
		t.cfg.Cache.Write(n.addr, InternalNodeBytes)
	}
	n.left = t.build(kps[:split])
	n.right = t.build(kps[split:])
	t.cfg.Work.Add(int64(len(kps)) / 8) // per-level partition overhead
	return n
}

// splitAtBit returns the index of the first element whose key has the given
// bit set. The slice must be sorted and must contain keys with both bit
// values (guaranteed when bit is the highest differing bit).
func splitAtBit(kps []keyed, bit uint) int {
	lo, hi := 0, len(kps)
	for lo < hi {
		mid := (lo + hi) / 2
		if morton.BitAt(kps[mid].key, bit) == 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// sharesPrefix reports whether key matches n's z-order prefix.
func (t *Tree) sharesPrefix(key uint64, n *node) bool {
	if n.prefixLen == 0 {
		return true
	}
	return (key^n.key)>>(t.keyBits()-uint(n.prefixLen)) == 0
}

// stream charges a streaming batch pass (sort buffers, copies) through
// the LLC: fresh synthetic addresses, so the bytes reach DRAM exactly once
// like a real stream, plus the compute work.
func (t *Tree) stream(bytes, work int64) {
	t.cfg.Work.Add(work)
	if t.cfg.Cache != nil && bytes > 0 {
		base := t.cfg.Alloc.Alloc(int(bytes))
		t.cfg.Cache.Access(base, int(bytes), true)
	}
}

// chargeSort prices sorting n keyed points on the host: an LSD radix sort
// streams the (key, point) payload several times.
func (t *Tree) chargeSort(n int) {
	t.stream(int64(n)*96, int64(n)*30) // ~6 passes x 16B, ~30 cycles/elem
}

// touch charges one node access to the instrumentation: bytes through the
// LLC simulator (if configured) and, when dependent is true, any resulting
// misses to the pointer-chase counter.
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

// CheckInvariants validates structural invariants; it returns an error
// describing the first violation found. Used heavily by tests.
func (t *Tree) CheckInvariants() error {
	if t.root == nil {
		return nil
	}
	total := t.keyBits()
	var rec func(n *node) (size int, err error)
	rec = func(n *node) (int, error) {
		if n.isLeaf() {
			if len(n.keys) == 0 {
				return 0, fmt.Errorf("empty leaf")
			}
			if len(n.keys) != len(n.pts) {
				return 0, fmt.Errorf("leaf keys/pts length mismatch")
			}
			if len(n.keys) > t.cfg.LeafCap && n.keys[0] != n.keys[len(n.keys)-1] {
				return 0, fmt.Errorf("over-full leaf with distinct keys: %d > %d", len(n.keys), t.cfg.LeafCap)
			}
			for i := range n.keys {
				if morton.EncodePoint(n.pts[i]) != n.keys[i] {
					return 0, fmt.Errorf("leaf key %d does not match point", i)
				}
				if i > 0 && n.keys[i] < n.keys[i-1] {
					return 0, fmt.Errorf("leaf keys unsorted")
				}
				if !t.sharesPrefix(n.keys[i], n) {
					return 0, fmt.Errorf("leaf point outside prefix")
				}
				if !n.box.Contains(n.pts[i]) {
					return 0, fmt.Errorf("leaf point outside box")
				}
			}
			if n.size != len(n.keys) {
				return 0, fmt.Errorf("leaf size %d != %d", n.size, len(n.keys))
			}
			return n.size, nil
		}
		if n.left == nil || n.right == nil {
			return 0, fmt.Errorf("internal node with single child (path not compressed)")
		}
		bit := total - 1 - uint(n.prefixLen)
		// Children must extend the parent prefix and diverge at bit.
		for side, c := range []*node{n.left, n.right} {
			if c.prefixLen <= n.prefixLen {
				return 0, fmt.Errorf("child prefix %d not longer than parent %d", c.prefixLen, n.prefixLen)
			}
			if !t.sharesPrefix(c.key, n) {
				return 0, fmt.Errorf("child key outside parent prefix")
			}
			if got := morton.BitAt(c.key, bit); got != uint64(side) {
				return 0, fmt.Errorf("child %d has split bit %d", side, got)
			}
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
			return 0, fmt.Errorf("internal size %d != %d + %d", n.size, ls, rs)
		}
		return n.size, nil
	}
	_, err := rec(t.root)
	return err
}
