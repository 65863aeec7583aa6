// Package naive implements the two straw-man PIM placements the paper's
// §3 motivates PIM-zd-tree against, so their failure modes can be
// measured rather than asserted:
//
//   - RangePartitioned: the tree is cut into P equal-size subtrees, each
//     stored contiguously on one module (the early range-partitioning
//     indexes of §2.2). Communication is minimal — one round per search —
//     but "in the worst case, all operations in a batch target the tree
//     on one PIM module and leave all the others idle".
//
//   - NodeHashed: every tree node is hashed to a random module (the
//     "master nodes only" design of §3). No adversary can overload one
//     module, but "during searches, every tree edge incurs a remote
//     access": a batch pays one BSP round and one message per tree level.
//
// Both maintain the same logical zd-tree as internal/core and run on the
// same PIM simulator, so the three-way comparison isolates placement.
package naive

import (
	"fmt"

	"pimzdtree/internal/costmodel"
	"pimzdtree/internal/geom"
	"pimzdtree/internal/morton"
	"pimzdtree/internal/parallel"
	"pimzdtree/internal/pim"
)

// Placement selects the straw-man strategy.
type Placement uint8

const (
	// RangePartitioned stores P contiguous subtrees, one per module.
	RangePartitioned Placement = iota
	// NodeHashed hashes every node to an independent module.
	NodeHashed
)

// String names the placement.
func (p Placement) String() string {
	switch p {
	case RangePartitioned:
		return "range-partitioned"
	case NodeHashed:
		return "node-hashed"
	default:
		return fmt.Sprintf("Placement(%d)", uint8(p))
	}
}

// Modeled message sizes (matching internal/core's).
const (
	queryMsgBytes  = 8
	resultMsgBytes = 8
	pointBytes     = 16
	leafHeaderB    = 16
	nodeB          = 32
)

// Config configures a straw-man tree.
type Config struct {
	Dims      uint8
	Machine   costmodel.Machine
	Placement Placement
	LeafCap   int
}

// Tree is a zd-tree under a straw-man placement.
type Tree struct {
	cfg  Config
	sys  *pim.System
	root *node
	// Range partitioning state: nodes above the partition boundary stay
	// on the CPU; the boundary nodes' subtrees map to modules in order.
	nextRange int
}

type node struct {
	left, right *node
	key         uint64
	prefixLen   uint8
	size        int64
	module      int // owning module (-1 = CPU-resident top, range mode)
	keys        []uint64
}

func (n *node) isLeaf() bool { return n.left == nil }

// New builds the tree and assigns placement.
func New(cfg Config, points []geom.Point) *Tree {
	if cfg.Dims < 2 || cfg.Dims > geom.MaxDims {
		panic("naive: unsupported dims")
	}
	if cfg.Machine.PIMModules <= 0 {
		panic("naive: machine has no PIM modules")
	}
	if cfg.LeafCap == 0 {
		cfg.LeafCap = 16
	}
	t := &Tree{cfg: cfg, sys: pim.NewSystem(cfg.Machine)}
	if len(points) == 0 {
		return t
	}
	keys := make([]uint64, len(points))
	for i, p := range points {
		if p.Dims != cfg.Dims {
			panic("naive: point dims mismatch")
		}
		keys[i] = morton.EncodePoint(p)
	}
	parallel.SortKeys(keys)
	t.sys.CPUPhase(int64(len(keys))*30, int64(len(keys))*96, 0)
	t.root = t.build(keys)
	t.assign()
	return t
}

func (t *Tree) keyBits() uint { return morton.KeyBits(int(t.cfg.Dims)) }

func (t *Tree) build(keys []uint64) *node {
	first, last := keys[0], keys[len(keys)-1]
	if len(keys) <= t.cfg.LeafCap || first == last {
		plen := uint(t.keyBits())
		if first != last {
			plen = morton.CommonPrefixLen(first, last, int(t.cfg.Dims))
		}
		return &node{
			key: first, prefixLen: uint8(plen), size: int64(len(keys)),
			keys: append([]uint64(nil), keys...),
		}
	}
	plen := morton.CommonPrefixLen(first, last, int(t.cfg.Dims))
	bit := t.keyBits() - 1 - plen
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if morton.BitAt(keys[mid], bit) == 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	n := &node{key: first, prefixLen: uint8(plen), size: int64(len(keys))}
	n.left = t.build(keys[:lo])
	n.right = t.build(keys[lo:])
	return n
}

// assign distributes nodes per the placement and records module space.
func (t *Tree) assign() {
	switch t.cfg.Placement {
	case RangePartitioned:
		target := t.root.size / int64(t.sys.P())
		if target < 1 {
			target = 1
		}
		t.nextRange = 0
		t.assignRange(t.root, target, false)
	case NodeHashed:
		t.assignHashed(t.root)
	}
	// One bulk-load round ships everything out.
	foot := make(map[int]int64)
	var walk func(n *node)
	walk = func(n *node) {
		if n == nil {
			return
		}
		if n.module >= 0 {
			foot[n.module] += nodeFootprint(n)
		}
		walk(n.left)
		walk(n.right)
	}
	walk(t.root)
	active := make([]int, 0, len(foot))
	for m := range foot {
		active = append(active, m)
	}
	t.sys.Round(active, func(m *pim.Module) {
		m.Recv(foot[m.ID])
		m.StoreBytes(foot[m.ID] - m.StoredBytes())
	})
}

// assignRange keeps nodes above the size boundary on the CPU (-1) and
// hands each boundary subtree to the next module in order.
func (t *Tree) assignRange(n *node, target int64, inModule bool) {
	if n == nil {
		return
	}
	if !inModule && n.size <= target {
		mod := t.nextRange % t.sys.P()
		t.nextRange++
		t.setSubtreeModule(n, mod)
		return
	}
	if !inModule {
		n.module = -1
		if n.isLeaf() {
			return
		}
		t.assignRange(n.left, target, false)
		t.assignRange(n.right, target, false)
	}
}

func (t *Tree) setSubtreeModule(n *node, mod int) {
	if n == nil {
		return
	}
	n.module = mod
	t.setSubtreeModule(n.left, mod)
	t.setSubtreeModule(n.right, mod)
}

func (t *Tree) assignHashed(n *node) {
	if n == nil {
		return
	}
	n.module = t.sys.ModuleOf(n.key ^ uint64(n.prefixLen)<<56)
	t.assignHashed(n.left)
	t.assignHashed(n.right)
}

func nodeFootprint(n *node) int64 {
	if n.isLeaf() {
		return leafHeaderB + int64(len(n.keys))*pointBytes
	}
	return nodeB
}

// System exposes the simulator for metrics.
func (t *Tree) System() *pim.System { return t.sys }

func (t *Tree) sharesPrefix(key uint64, n *node) bool {
	if n.prefixLen == 0 {
		return true
	}
	return (key^n.key)>>(t.keyBits()-uint(n.prefixLen)) == 0
}

func (t *Tree) childFor(n *node, key uint64) *node {
	if morton.BitAt(key, t.keyBits()-1-uint(n.prefixLen)) == 0 {
		return n.left
	}
	return n.right
}

// SearchResult mirrors internal/core's: the leaf (or divergence node)
// where each query lands.
type SearchResult struct {
	Terminal *node
}

// Search routes a batch of points to their leaves under the straw-man
// execution model and returns per-query results.
func (t *Tree) Search(points []geom.Point) []SearchResult {
	keys := make([]uint64, len(points))
	for i, p := range points {
		keys[i] = morton.EncodePoint(p)
	}
	t.sys.CPUPhase(int64(len(points))*morton.CostFast(t.cfg.Dims), 0, 0)
	res := make([]SearchResult, len(points))
	if t.root == nil {
		return res
	}
	switch t.cfg.Placement {
	case RangePartitioned:
		t.searchRange(keys, res)
	case NodeHashed:
		t.searchHashed(keys, res)
	}
	return res
}

// searchRange: CPU walks the resident top, then one round sends each
// query to its subtree's module, which traverses locally. Load balance is
// whatever the key distribution gives.
func (t *Tree) searchRange(keys []uint64, res []SearchResult) {
	type entryT struct {
		qi   int32
		node *node
	}
	perModule := make(map[int][]entryT)
	var cpuWork int64
	for i, key := range keys {
		n := t.root
		for n.module == -1 {
			cpuWork += 4
			if n.isLeaf() || !t.sharesPrefix(key, n) {
				res[i].Terminal = n
				n = nil
				break
			}
			n = t.childFor(n, key)
		}
		if n != nil {
			perModule[n.module] = append(perModule[n.module], entryT{qi: int32(i), node: n})
		}
	}
	t.sys.CPUPhase(cpuWork, 0, 0)
	active := make([]int, 0, len(perModule))
	for m := range perModule {
		active = append(active, m)
	}
	if len(active) == 0 {
		return
	}
	t.sys.Round(active, func(m *pim.Module) {
		entries := perModule[m.ID]
		m.Recv(int64(len(entries)) * queryMsgBytes)
		for _, e := range entries {
			n := e.node
			for {
				m.Work(4)
				if n.isLeaf() || !t.sharesPrefix(keys[e.qi], n) {
					res[e.qi].Terminal = n
					break
				}
				n = t.childFor(n, keys[e.qi])
			}
		}
		m.Send(int64(len(entries)) * resultMsgBytes)
	})
}

// searchHashed: every tree level is one BSP round — each query's current
// node lives on a random module, and the child pointer must come back to
// the CPU before the next hop can be issued.
func (t *Tree) searchHashed(keys []uint64, res []SearchResult) {
	type entryT struct {
		qi   int32
		node *node
	}
	frontier := make([]entryT, len(keys))
	for i := range keys {
		frontier[i] = entryT{qi: int32(i), node: t.root}
	}
	for len(frontier) > 0 {
		perModule := make(map[int][]entryT)
		for _, e := range frontier {
			perModule[e.node.module] = append(perModule[e.node.module], e)
		}
		active := make([]int, 0, len(perModule))
		for m := range perModule {
			active = append(active, m)
		}
		nexts := make([]*node, len(keys))
		t.sys.Round(active, func(m *pim.Module) {
			entries := perModule[m.ID]
			m.Recv(int64(len(entries)) * queryMsgBytes)
			for _, e := range entries {
				m.Work(4)
				n := e.node
				if n.isLeaf() || !t.sharesPrefix(keys[e.qi], n) {
					res[e.qi].Terminal = n
					continue
				}
				nexts[e.qi] = t.childFor(n, keys[e.qi])
			}
			m.Send(int64(len(entries)) * resultMsgBytes)
		})
		out := frontier[:0]
		for _, e := range frontier {
			if n := nexts[e.qi]; n != nil {
				out = append(out, entryT{qi: e.qi, node: n})
			}
		}
		frontier = out
	}
}
