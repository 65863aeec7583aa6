package core

import "pimzdtree/internal/parallel"

// chunkGroup is one meta-node's share of a frontier: the entries of a wave
// (or search phase) positioned in one chunk.
type chunkGroup struct {
	chunk   *Chunk
	entries []entry
}

// Frontier grouping. Every push-pull round starts on the host by grouping
// its frontier by meta-node (the semisort step of push-pull routing): the
// entries are permuted in place so each chunk's entries are contiguous,
// groups ascending by chunk ID, entries in frontier order within a group.
// relayout ranks every chunk densely by ID (Chunk.rank), so the grouping is
// a sort on a small integer key read once per entry:
//
//   - from groupCountMin entries, when the tree has at most groupCountSpan
//     ranks per entry, a stable counting sort (per-worker rank histograms,
//     scanned rank-major then worker-major into scatter cursors);
//   - otherwise a sort of (rank, position) keys, which is stable because
//     the positions are distinct, followed by one gather.
//
// Either way no comparison dereferences a node, and both produce exactly
// the groups a stable sort by chunk ID would.
const (
	// groupCountMin is the frontier size from which the counting sort can
	// pay for its pass over every rank.
	groupCountMin = 128
	// groupCountSpan bounds the ranks per frontier entry the counting sort
	// accepts. BenchmarkGroupByChunk on one core of a 2-vCPU Xeon: with
	// 4 527 ranks (400 k OSMLike points, 2048 modules), sorting 1 024 keys
	// took 25 us against the counting sort's 29, and 2 048 keys 109 against
	// 41; with 202 ranks (64 modules) the counting sort won from 128
	// entries. So it takes frontiers with at most two ranks per entry.
	groupCountSpan = 2
	// groupForkGrain is the entries per worker from which the counting
	// sort's passes fork. BenchmarkGroupByChunk at -cpu 2 (same machine,
	// both rank counts): forked passes lost at 16 384 entries (about 250
	// against 190 us with 202 ranks), tied at 32 768 and won at 65 536
	// (1.18 against 1.5 ms with 4 527 ranks), so they fork from 32 768.
	groupForkGrain = 16384
)

// groupScratch is groupByChunk's reusable scratch.
type groupScratch struct {
	keys  []uint64 // (rank, position) sort keys
	ranks []uint32 // each entry's rank (counting sort)
	cnt   []int    // per-worker rank histograms, then scatter cursors
	tmp   []entry  // scatter destination
}

func (g *groupScratch) trim(peak int) {
	g.keys = parallel.Keep(g.keys, peak)
	g.ranks = parallel.Keep(g.ranks, peak)
	g.cnt = parallel.Keep(g.cnt, peak)
	g.tmp = parallel.Keep(g.tmp, peak)
}

// groupByChunk groups frontier by chunk in place (see above), charges the
// grouping as a CPU phase and returns the groups. The chunkGroup backing is
// Tree scratch: callers are done with one round's groups before they
// regroup the next frontier.
func (t *Tree) groupByChunk(frontier []entry) []chunkGroup {
	n := len(frontier)
	if n == 0 {
		return nil
	}
	t.noteScratch(n)
	if n >= groupCountMin && t.ranks <= groupCountSpan*n {
		p := min(parallel.Workers(), max(1, n/groupForkGrain))
		t.groupBuf = t.groupCounting(frontier, t.groupBuf[:0], p)
	} else {
		t.groupBuf = t.groupSorted(frontier, t.groupBuf[:0])
	}
	t.chargeGrouping(n)
	return t.groupBuf
}

// chargeGrouping charges the grouping of an n-entry frontier: the modeled
// host semisort, whichever way the host grouped it.
func (t *Tree) chargeGrouping(n int) {
	rec := t.sys.Recorder()
	rec.BeginPhase("semisort")
	t.sys.CPUPhase(parallel.CountingSortWork(n), int64(n)*8, 0)
	rec.EndPhase()
}

// groupSorted groups frontier by sorting (rank, position) keys.
func (t *Tree) groupSorted(frontier []entry, out []chunkGroup) []chunkGroup {
	g := &t.grouping
	n := len(frontier)
	g.keys = sized(g.keys, n)
	g.tmp = sized(g.tmp, n)
	keys, tmp := g.keys, g.tmp
	for i, e := range frontier {
		keys[i] = uint64(e.node.Chunk.rank)<<32 | uint64(i)
	}
	parallel.SortKeys(keys)
	for j, k := range keys {
		tmp[j] = frontier[uint32(k)]
	}
	copy(frontier, tmp)
	lo := 0
	for j := 1; j <= n; j++ {
		if j == n || keys[j]>>32 != keys[lo]>>32 {
			out = append(out, chunkGroup{chunk: frontier[lo].node.Chunk, entries: frontier[lo:j]})
			lo = j
		}
	}
	return out
}

// groupCounting groups frontier with a stable counting sort on rank, its
// passes split across p workers. Worker w counts and later scatters the
// same block of the frontier (BlocksN's partition depends only on the
// worker and entry counts), and its cursor for a rank starts after every
// earlier worker's entries of that rank, so the layout is the serial one
// for any p.
func (t *Tree) groupCounting(frontier []entry, out []chunkGroup, p int) []chunkGroup {
	g := &t.grouping
	n, r := len(frontier), t.ranks
	g.ranks = sized(g.ranks, n)
	g.tmp = sized(g.tmp, n)
	g.cnt = sized(g.cnt, p*r)
	clear(g.cnt)
	if p == 1 {
		g.count(frontier, 0, 0, n, r)
	} else {
		parallel.BlocksN(p, n, func(w, lo, hi int) { g.count(frontier, w, lo, hi, r) })
	}
	base, pos := len(out), 0
	for k := 0; k < r; k++ {
		lo := pos
		for w := 0; w < p; w++ {
			c := &g.cnt[w*r+k]
			*c, pos = pos, pos+*c
		}
		if pos > lo {
			out = append(out, chunkGroup{entries: frontier[lo:pos]})
		}
	}
	if p == 1 {
		g.scatter(frontier, 0, 0, n, r)
		copy(frontier, g.tmp)
	} else {
		parallel.BlocksN(p, n, func(w, lo, hi int) { g.scatter(frontier, w, lo, hi, r) })
		parallel.BlocksN(p, n, func(_, lo, hi int) { copy(frontier[lo:hi], g.tmp[lo:hi]) })
	}
	for i := base; i < len(out); i++ {
		out[i].chunk = out[i].entries[0].node.Chunk
	}
	return out
}

// count is worker w's counting pass over frontier[lo:hi]: it notes each
// entry's rank and counts it in the worker's histogram of r ranks.
func (g *groupScratch) count(frontier []entry, w, lo, hi, r int) {
	row := g.cnt[w*r : (w+1)*r]
	for i := lo; i < hi; i++ {
		k := frontier[i].node.Chunk.rank
		g.ranks[i] = k
		row[k]++
	}
}

// scatter is worker w's scatter pass: each entry of frontier[lo:hi] goes to
// its rank's cursor, which advances.
func (g *groupScratch) scatter(frontier []entry, w, lo, hi, r int) {
	row := g.cnt[w*r : (w+1)*r]
	for i := lo; i < hi; i++ {
		k := g.ranks[i]
		g.tmp[row[k]] = frontier[i]
		row[k]++
	}
}
