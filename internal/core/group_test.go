package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"pimzdtree/internal/geom"
	"pimzdtree/internal/obs"
	"pimzdtree/internal/parallel"
	"pimzdtree/internal/workload"
)

// idSemisortGroups is the grouping groupByChunk replaced, kept as its
// oracle: a semisort of the frontier by chunk ID, in place, each group
// taking the chunk of its first entry.
func idSemisortGroups(frontier []entry) []chunkGroup {
	var out []chunkGroup
	for _, g := range parallel.Semisort(frontier, func(e entry) uint64 { return e.node.Chunk.ID }) {
		out = append(out, chunkGroup{chunk: frontier[g.Lo].node.Chunk, entries: frontier[g.Lo:g.Hi]})
	}
	return out
}

// chunkedNodes returns every node of the tree that lies in a chunk (the
// nodes a wave frontier can hold), in key order.
func chunkedNodes(t *Tree) []*Node {
	var out []*Node
	var walk func(n *Node)
	walk = func(n *Node) {
		if n == nil {
			return
		}
		if n.Chunk != nil {
			out = append(out, n)
		}
		if !n.IsLeaf() {
			walk(n.Left)
			walk(n.Right)
		}
	}
	walk(t.root)
	return out
}

// groupFrontiers draws frontiers of n entries in four shapes: nodes drawn
// at random; the same sorted by key, as a frontier of sorted queries comes
// out; all in one chunk; and three quarters in one chunk's cluster with the
// rest random.
func groupFrontiers(rng *rand.Rand, nodes []*Node, n int) map[string][]entry {
	pick := func() *Node { return nodes[rng.Intn(len(nodes))] }
	hot := pick().Chunk
	var inHot []*Node
	for _, nd := range nodes {
		if nd.Chunk == hot {
			inHot = append(inHot, nd)
		}
	}
	shapes := map[string][]entry{}
	for _, shape := range []string{"random", "key-sorted", "single-chunk", "one-hot-cluster"} {
		f := make([]entry, n)
		for i := range f {
			nd := pick()
			switch {
			case shape == "single-chunk", shape == "one-hot-cluster" && i%4 != 0:
				nd = inHot[rng.Intn(len(inHot))]
			}
			f[i] = entry{qi: int32(rng.Intn(n)), node: nd}
		}
		if shape == "key-sorted" {
			slices.SortStableFunc(f, func(a, b entry) int {
				switch {
				case a.node.Key < b.node.Key:
					return -1
				case a.node.Key > b.node.Key:
					return 1
				}
				return 0
			})
		}
		shapes[shape] = f
	}
	return shapes
}

// checkRanks verifies the rank invariant over every chunk the last layout
// built: ranks order like IDs, equal exactly when the IDs are, and are
// below t.ranks.
func checkRanks(t *testing.T, tr *Tree) {
	t.Helper()
	chunks := slices.Clone(tr.chunkBuild.chunks)
	slices.SortFunc(chunks, func(a, b *Chunk) int {
		switch {
		case a.ID < b.ID:
			return -1
		case a.ID > b.ID:
			return 1
		}
		return 0
	})
	for i, c := range chunks {
		if int(c.rank) >= tr.ranks {
			t.Fatalf("chunk %x has rank %d, but the layout has %d ranks", c.ID, c.rank, tr.ranks)
		}
		if i == 0 {
			if c.rank != 0 {
				t.Fatalf("smallest chunk ID has rank %d", c.rank)
			}
			continue
		}
		prev := chunks[i-1]
		want := prev.rank + 1
		if prev.ID == c.ID {
			want = prev.rank
		}
		if c.rank != want {
			t.Fatalf("chunk %x after %x (rank %d) has rank %d, want %d", c.ID, prev.ID, prev.rank, c.rank, want)
		}
	}
	if last := chunks[len(chunks)-1]; int(last.rank)+1 != tr.ranks {
		t.Fatalf("largest rank %d, but the layout has %d ranks", last.rank, tr.ranks)
	}
}

// TestGroupByChunkMatchesIDSemisort checks the rank grouping against the ID
// semisort it replaced: the same groups (chunk and entries, in order) and
// the same permuted frontier, through groupByChunk and through each of its
// two paths, for every frontier shape and size, at several GOMAXPROCS, and
// again after an insert and a delete batch have re-laid the tree out.
func TestGroupByChunkMatchesIDSemisort(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	data := workload.OSMLike(41, 60_000, 3)
	tr := New(testConfig(SkewResistant), data)
	rng := rand.New(rand.NewSource(43))
	paths := map[string]func(frontier []entry, procs int) []chunkGroup{
		"groupByChunk": func(f []entry, _ int) []chunkGroup { return tr.groupByChunk(f) },
		"sorted":       func(f []entry, _ int) []chunkGroup { return tr.groupSorted(f, nil) },
		"counting":     func(f []entry, procs int) []chunkGroup { return tr.groupCounting(f, nil, procs) },
	}
	check := func(stage string) {
		checkRanks(t, tr)
		nodes := chunkedNodes(tr)
		for _, n := range []int{1, 15, 16, 17, 128, 4096, 20_000} {
			for shape, frontier := range groupFrontiers(rng, nodes, n) {
				want := slices.Clone(frontier)
				wantGroups := idSemisortGroups(want)
				for name, group := range paths {
					for _, procs := range []int{1, 2, 8} {
						runtime.GOMAXPROCS(procs)
						got := slices.Clone(frontier)
						groups := group(got, procs)
						where := fmt.Sprintf("%s: %s, %s frontier of %d, GOMAXPROCS=%d", stage, name, shape, n, procs)
						if !slices.Equal(got, want) {
							t.Fatalf("%s: frontier permuted differently", where)
						}
						if len(groups) != len(wantGroups) {
							t.Fatalf("%s: %d groups, want %d", where, len(groups), len(wantGroups))
						}
						off := 0
						for i, g := range groups {
							w := wantGroups[i]
							if g.chunk != w.chunk || len(g.entries) != len(w.entries) || &g.entries[0] != &got[off] {
								t.Fatalf("%s: group %d is chunk %x with %d entries, want chunk %x with %d at %d",
									where, i, g.chunk.ID, len(g.entries), w.chunk.ID, len(w.entries), off)
							}
							off += len(g.entries)
						}
					}
				}
			}
		}
	}
	check("built")
	batch := workload.OSMLike(47, 6_000, 3)
	tr.Insert(batch)
	check("after insert")
	tr.Delete(batch[:3_000])
	check("after delete")
}

// serialGather is pointSink.gather before it forked: per-query offsets over
// every find, then one walk over the slots in order appending each find to
// its query's list.
func serialGather(ps *pointSink, nq int) [][]geom.Point {
	offs := make([]int, nq+1)
	for w := range ps.bufs {
		for _, f := range ps.bufs[w].pts {
			offs[f.qi+1]++
		}
	}
	for i := 0; i < nq; i++ {
		offs[i+1] += offs[i]
	}
	arena := make([]geom.Point, offs[nq])
	out := make([][]geom.Point, nq)
	for qi := range out {
		out[qi] = arena[offs[qi]:offs[qi]:offs[qi+1]]
	}
	for _, seg := range ps.segs {
		for _, f := range ps.bufs[seg.worker].pts[seg.lo:seg.hi] {
			out[f.qi] = append(out[f.qi], f.p)
		}
	}
	return out
}

// serialExpandL0 is expandL0 on the caller alone: every query in order,
// as worker 0.
func (t *Tree) serialExpandL0(n int, w waveWalk) []entry {
	var frontier []entry
	var work int64
	for i := 0; i < n; i++ {
		work += w.expandL0(0, int32(i), &frontier)
	}
	t.sys.CPUPhase(work, 0, 0)
	return frontier
}

// TestForkedHostPhasesMatchSerial checks the two per-query host phases that
// fork against their serial forms, at GOMAXPROCS 1, 2 and 8: gather's
// per-query lists (contents, order and capacity) on 1 to 8 blocks, and
// expandL0's frontier, per-query results and charged CPU time on both
// sides of hostForkMin.
func TestForkedHostPhasesMatchSerial(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	data := workload.OSMLike(53, 60_000, 3)
	tr := New(testConfig(SkewResistant), data)
	boxes := workload.QueryBoxes(59, data, 2048, 64)

	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)

		// gather, over the finds of a box fetch.
		tr.found.reset()
		tr.boxWave(boxes, nil, &tr.found)
		want := serialGather(&tr.found, len(boxes))
		for _, own := range []bool{true, false} {
			got := tr.found.gatherOn(procs, len(boxes), own)
			for qi := range want {
				if !slices.Equal(got[qi], want[qi]) || cap(got[qi]) != len(got[qi]) {
					t.Fatalf("GOMAXPROCS=%d own=%v: box %d gathered %d points (cap %d), want %d in slot order",
						procs, own, qi, len(got[qi]), cap(got[qi]), len(want[qi]))
				}
			}
		}
		tr.trimScratch()

		// expandL0, on the L0 prefixes of box counts: a batch below
		// hostForkMin (its serial branch) and one above (its fork).
		for _, n := range []int{hostForkMin - 1, len(boxes)} {
			var counts [2][]int64
			var fronts [2][]entry
			var cpu [2]float64
			for side, expandL0 := range []func(int, waveWalk) []entry{tr.serialExpandL0, tr.expandL0} {
				c := make([]int64, n)
				tr.sys.ResetMetrics()
				f := expandL0(n, &boxWalk{t: tr, boxes: boxes, counts: c})
				counts[side], fronts[side], cpu[side] = c, slices.Clone(f), tr.sys.Metrics().CPUSeconds
			}
			switch {
			case len(fronts[1]) == 0:
				t.Fatalf("GOMAXPROCS=%d, %d queries: the L0 prefixes left no chunk entries", procs, n)
			case !slices.Equal(fronts[1], fronts[0]):
				t.Fatalf("GOMAXPROCS=%d, %d queries: expandL0 frontier differs from the serial one", procs, n)
			case !slices.Equal(counts[1], counts[0]):
				t.Fatalf("GOMAXPROCS=%d, %d queries: expandL0 per-query results differ from the serial ones", procs, n)
			case cpu[1] != cpu[0]:
				t.Fatalf("GOMAXPROCS=%d, %d queries: expandL0 charged %g CPU seconds, serial %g", procs, n, cpu[1], cpu[0])
			}
		}
	}
}

// TestForkedHostPhasesIdenticalAcrossGOMAXPROCS runs a query panel large
// enough that every host phase between rounds forks — the counting sort's
// passes (search frontiers of 12 288 entries), expandL0 and the per-query
// loops (2 048 queries) and gather (about 100 000 finds for the kNN
// sphere fetch, 230 000 for the box fetch) — and
// requires the answers, the modeled metrics and both trace exports to be
// the same at GOMAXPROCS 1, 4 and 16. make determinism's runs (3 000-op
// batches) engage the same forks, though only a few of their frontiers are
// large enough for the counting sort's passes to fork.
func TestForkedHostPhasesIdenticalAcrossGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	data := workload.OSMLike(61, 60_000, 3)
	searches := workload.QueryPoints(71, data, 3*groupForkGrain)
	knnQ := workload.QueryPoints(73, data, 2048)
	boxes := workload.QueryBoxes(67, data, 2048, 64)

	run := func(procs int) pushedRoundOutcome {
		runtime.GOMAXPROCS(procs)
		rec := obs.New()
		cfg := testConfig(SkewResistant)
		cfg.Obs = rec
		tr := New(cfg, data)
		var o pushedRoundOutcome
		for _, r := range tr.Search(searches) {
			o.terminals = append(o.terminals, r.Terminal.Key, uint64(r.Terminal.PrefixLen))
		}
		o.nbrs = tr.KNN(knnQ, 10)
		for _, pts := range tr.BoxFetch(boxes) {
			h := uint64(len(pts))
			for _, p := range pts {
				h = fnvStep(h, hashPoint(p))
			}
			o.fetched = append(o.fetched, h)
		}
		o.metrics = tr.System().Metrics()
		var chrome, jsonl bytes.Buffer
		if err := rec.ExportChrome(&chrome); err != nil {
			t.Fatal(err)
		}
		if err := rec.ExportJSONL(&jsonl); err != nil {
			t.Fatal(err)
		}
		o.chrome, o.jsonl = chrome.Bytes(), jsonl.Bytes()
		return o
	}
	want := run(1)
	for _, procs := range []int{4, 16} {
		got := run(procs)
		switch {
		case !slices.Equal(got.terminals, want.terminals):
			t.Errorf("GOMAXPROCS=%d: search terminals differ", procs)
		case !reflect.DeepEqual(got.nbrs, want.nbrs):
			t.Errorf("GOMAXPROCS=%d: kNN answers differ", procs)
		case !slices.Equal(got.fetched, want.fetched):
			t.Errorf("GOMAXPROCS=%d: fetched points (or their order) differ", procs)
		case got.metrics != want.metrics:
			t.Errorf("GOMAXPROCS=%d: metrics\n got %+v\nwant %+v", procs, got.metrics, want.metrics)
		case !bytes.Equal(got.chrome, want.chrome):
			t.Errorf("GOMAXPROCS=%d: Chrome trace export differs", procs)
		case !bytes.Equal(got.jsonl, want.jsonl):
			t.Errorf("GOMAXPROCS=%d: JSONL trace export differs", procs)
		}
	}
}
