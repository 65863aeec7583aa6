package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"pimzdtree/internal/geom"
	"pimzdtree/internal/morton"
	"pimzdtree/internal/parallel"
	"pimzdtree/internal/pim"
	"pimzdtree/internal/workload"
)

// The per-query search that the lockstep descent replaced, kept as the
// oracle of TestDescendMatchesPerQueryWalk: one query at a time, walked
// inside the round handlers that charge it. Recorder spans are left out;
// everything the model charges is here in the original order.

// descendL0 walks one query through L0, returning the first non-L0 node
// (chunk entry) or nil at an in-L0 terminal, and the nodes visited.
func (t *Tree) descendL0(key uint64, opts searchOpts, r *SearchResult) (*Node, int64) {
	n := t.root
	var visited int64
	for {
		if n.Layer != L0 {
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

// traverseChunkMaster walks a query from nd through its chunk's master
// structure, stopping on chunk exit, leaf, or prefix divergence.
func (t *Tree) traverseChunkMaster(key uint64, nd *Node, opts searchOpts, r *SearchResult) (*Node, int64) {
	c := nd.Chunk
	n := nd
	var visited int64
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

// traverseL1Cached walks a query from an L1 entry through the cached L1
// structure, exiting at the first L2 node, leaf, or divergence.
func (t *Tree) traverseL1Cached(key uint64, nd *Node, opts searchOpts, r *SearchResult) (*Node, int64) {
	n := nd
	var visited int64
	for {
		if n.Layer == L2 {
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

// childFor returns the child of internal node n that key routes to.
func (t *Tree) childFor(n *Node, key uint64) *Node {
	if morton.BitAt(key, t.splitBit(n)) == 0 {
		return n.Left
	}
	return n.Right
}

// oracleSearchKeys is searchKeys as it was before the lockstep descent.
func (t *Tree) oracleSearchKeys(keys []uint64, opts searchOpts) []SearchResult {
	res := make([]SearchResult, len(keys))
	if t.root == nil {
		return res
	}
	frontier := t.oracleSearchL0(keys, opts, res)
	frontier = t.oracleSearchL1(keys, opts, res, frontier)
	t.oracleSearchL2(keys, opts, res, frontier)
	return res
}

func (t *Tree) oracleSearchL0(keys []uint64, opts searchOpts, res []SearchResult) []entry {
	frontier := make([]entry, len(keys))
	visits := make([]int64, len(keys))
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
		p := t.P()
		t.sys.Round(t.sys.AllModules(), func(m *pim.Module) {
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

func (t *Tree) oracleSearchL1(keys []uint64, opts searchOpts, res []SearchResult, frontier []entry) []entry {
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
	pending := frontier
	frontier = frontier[:0]
	for _, e := range pending {
		appendNext(e.qi, e.node)
	}
	kPull := t.pullThresholdL1()
	for iter := 0; len(frontier) > 0 && iter < 64; iter++ {
		groups := t.groupByChunk(frontier)
		if !pim.Imbalanced(t.moduleLoads(groups), t.P()) {
			break
		}
		pulled, rest := t.router.partition(groups, func(g chunkGroup) bool {
			return len(g.entries) > kPull
		})
		if len(pulled) == 0 {
			break
		}
		var pulledNext []entry
		t.oraclePullAndAdvance(keys, opts, res, pulled, func(qi int32, n *Node) {
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
	}
	if len(frontier) > 0 {
		groups := t.groupByChunk(frontier)
		next := make([]*Node, len(keys))
		t.oracleRoundOverGroups(groups, func(m *pim.Module, g chunkGroup) {
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
	}
	return l2
}

func (t *Tree) oracleSearchL2(keys []uint64, opts searchOpts, res []SearchResult, frontier []entry) {
	kPull := int(t.chunkB)
	nextOf := make([]*Node, len(keys))
	for len(frontier) > 0 {
		groups := t.groupByChunk(frontier)
		pulled, pushed := t.router.partition(groups, func(g chunkGroup) bool {
			return len(g.entries) > kPull
		})
		for _, e := range frontier {
			nextOf[e.qi] = nil
		}
		t.oraclePullAndAdvanceInRound(keys, opts, res, pulled, pushed, func(qi int32, n *Node) { nextOf[qi] = n })
		frontier = frontier[:0]
		for _, g := range groups {
			for _, e := range g.entries {
				if n := nextOf[e.qi]; n != nil {
					frontier = append(frontier, entry{qi: e.qi, node: n})
				}
			}
		}
	}
}

func (t *Tree) oraclePullAndAdvance(keys []uint64, opts searchOpts, res []SearchResult, pulled []chunkGroup, appendNext func(int32, *Node)) {
	r := &t.router
	r.route(t.P(), pulled, nil)
	t.sys.Round(r.active, func(m *pim.Module) {
		for _, g := range r.pullsOf(m.ID) {
			m.Send(g.chunk.StructBytes)
		}
	})
	var cpuWork, cpuBytes int64
	for _, g := range pulled {
		for _, e := range g.entries {
			nd, visited := t.traverseChunkMaster(keys[e.qi], e.node, opts, &res[e.qi])
			cpuWork += visited * 4
			if nd != nil {
				appendNext(e.qi, nd)
			}
		}
		cpuBytes += g.chunk.StructBytes
	}
	t.pulls += int64(len(pulled))
	t.sys.CPUPhase(cpuWork, cpuBytes, 0)
}

func (t *Tree) oraclePullAndAdvanceInRound(keys []uint64, opts searchOpts, res []SearchResult, pulled, pushed []chunkGroup, record func(int32, *Node)) {
	r := &t.router
	r.route(t.P(), pulled, pushed)
	if len(r.active) == 0 {
		return
	}
	var out []entry
	t.sys.Round(r.active, func(m *pim.Module) {
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
	})
	for _, pr := range out {
		if pr.node != nil {
			record(pr.qi, pr.node)
		}
	}
	if len(pulled) > 0 {
		var cpuWork, cpuBytes int64
		for _, g := range pulled {
			for _, e := range g.entries {
				nd, visited := t.traverseChunkMaster(keys[e.qi], e.node, opts, &res[e.qi])
				cpuWork += visited * 4
				if nd != nil {
					record(e.qi, nd)
				}
			}
			cpuBytes += g.chunk.StructBytes
		}
		t.pulls += int64(len(pulled))
		t.sys.CPUPhase(cpuWork, cpuBytes, 0)
	}
}

func (t *Tree) oracleRoundOverGroups(groups []chunkGroup, handler func(m *pim.Module, g chunkGroup)) {
	r := &t.router
	r.route(t.P(), nil, groups)
	t.sys.Round(r.active, func(m *pim.Module) {
		for _, g := range r.pushesOf(m.ID) {
			handler(m, g)
		}
	})
}

// descendBatches returns the differential test's query shapes at n keys:
// random (stored and perturbed points), key-sorted, all-equal, and a
// one-hot cluster around a single stored point with a few strays.
func descendBatches(rng *rand.Rand, data []geom.Point, n int) map[string][]geom.Point {
	random := make([]geom.Point, n)
	for i := range random {
		random[i] = data[rng.Intn(len(data))]
		if i%2 == 1 {
			random[i].Coords[i%3] ^= uint32(rng.Intn(1 << 12))
		}
	}
	sorted := slices.Clone(random)
	slices.SortFunc(sorted, func(a, b geom.Point) int {
		ka, kb := morton.EncodePoint(a), morton.EncodePoint(b)
		switch {
		case ka < kb:
			return -1
		case ka > kb:
			return 1
		}
		return 0
	})
	equal := make([]geom.Point, n)
	for i := range equal {
		equal[i] = data[7]
	}
	hot := make([]geom.Point, n)
	for i := range hot {
		if i%16 == 15 {
			hot[i] = data[rng.Intn(len(data))]
			continue
		}
		hot[i] = data[11]
		hot[i].Coords[i%3] ^= uint32(rng.Intn(1 << 6))
	}
	return map[string][]geom.Point{"random": random, "sorted": sorted, "equal": equal, "hot": hot}
}

// TestDescendMatchesPerQueryWalk checks the lockstep descent against the
// per-query walkers it replaced, on one tree: every query's Terminal, LowK
// and Trace, and the modeled metrics of the whole search, down to the
// float seconds. Sizes straddle the lane width; the configurations cover
// both tunings and L0 replicated on the modules; kTrack and trace run on
// and off. At 4096 keys the L0 and L2 walks spread over the host's workers.
func TestDescendMatchesPerQueryWalk(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)

	data := workload.OSMLike(5, 20_000, 3)
	onModules := testConfig(SkewResistant)
	onModules.CacheBudget = 1
	configs := []struct {
		name string
		cfg  Config
	}{
		{"throughput", testConfig(ThroughputOptimized)},
		{"skew", testConfig(SkewResistant)},
		{"skew-l0-on-modules", onModules},
	}
	var pulls int64
	for _, c := range configs {
		tr := New(c.cfg, data)
		if want := c.name == "skew-l0-on-modules"; tr.l0OnModules != want {
			t.Fatalf("%s: l0OnModules = %v, want %v", c.name, tr.l0OnModules, want)
		}
		rng := rand.New(rand.NewSource(41))
		for _, n := range []int{1, 15, 16, 17, 128, 4096} {
			batches := descendBatches(rng, data, n)
			for _, shape := range []string{"random", "sorted", "equal", "hot"} {
				for _, opts := range []searchOpts{{}, {kTrack: 10, trace: true}} {
					name := fmt.Sprintf("%s/%s/n=%d/track=%v", c.name, shape, n, opts.trace)
					keys := make([]uint64, n)
					for i, p := range batches[shape] {
						keys[i] = morton.EncodePoint(p)
					}
					before := tr.Stats().Pulls
					tr.sys.ResetMetrics()
					got := tr.searchKeys(keys, opts)
					gotM := tr.sys.Metrics()
					gotPulls := tr.Stats().Pulls - before
					pulls += gotPulls

					tr.sys.ResetMetrics()
					before = tr.Stats().Pulls
					want := tr.oracleSearchKeys(keys, opts)
					wantM := tr.sys.Metrics()
					wantPulls := tr.Stats().Pulls - before

					if gotM != wantM {
						t.Fatalf("%s: metrics\n got %+v\nwant %+v", name, gotM, wantM)
					}
					if gotPulls != wantPulls {
						t.Fatalf("%s: %d chunk pulls, want %d", name, gotPulls, wantPulls)
					}
					for i := range want {
						g, w := got[i], want[i]
						if g.Terminal != w.Terminal || g.LowK != w.LowK || !slices.Equal(g.Trace, w.Trace) {
							t.Fatalf("%s: query %d: got (%p, %p, %d-node trace), want (%p, %p, %d-node trace)",
								name, i, g.Terminal, g.LowK, len(g.Trace), w.Terminal, w.LowK, len(w.Trace))
						}
					}
				}
			}
		}
	}
	if pulls == 0 {
		t.Fatal("no batch pulled a chunk: the pulled walks went unchecked")
	}
}
