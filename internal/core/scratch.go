package core

import "pimzdtree/internal/parallel"

// Scratch retention. The batch scratch a Tree owns grows to whatever the
// largest batch asked of it and is reused from then on, which is what keeps
// steady-state batches allocation-free — and what would let one bulk Insert
// pin bulk-sized buffers under a server that goes back to ten-point epochs.
// Every batch therefore notes the most elements it asked of any buffer
// (its length, and every wave's frontier), and ends in trimScratch: once a
// batch's peak falls so far below the high-water mark the scratch has grown
// for that parallel.Keep would not retain a high-water-sized buffer for it,
// every buffer Keep rejects is released and the mark drops to that batch.
// The test is one comparison per batch; same-sized and alternating batches
// (a round of 16 384 searches, 2 048 kNN, 2 048 boxes) never trip it.
//
// The found-point buffers (the sphere and box-fetch sink, the workers'
// final-filter arenas) are sized by answers, not by batches: one kNN query
// from an isolated point can sweep a whole dense cluster into its sphere.
// Their own rule runs after every batch (trimFound): they are judged by
// what this batch collected — nothing, for a batch that fetched nothing —
// with an allowance of about one element per stored point. A kNN batch
// whose spheres hold more than the tree does not pin them past the next
// batch, and a large tree's steady rounds of kNN spheres keep theirs.

// noteScratch records that the current batch needs n elements of scratch.
func (t *Tree) noteScratch(n int) {
	t.scratchPeak = max(t.scratchPeak, n)
}

// trimScratch ends a batch (deferred by every batch operation).
func (t *Tree) trimScratch() {
	t.trimFound()
	peak := t.scratchPeak
	t.scratchPeak = 0
	if !parallel.Oversized(t.scratchHigh, peak) {
		t.scratchHigh = max(t.scratchHigh, peak)
		return
	}
	t.scratchHigh = peak

	t.idxSorter.Trim(peak)
	t.grouping.trim(peak)
	t.keyBuf = parallel.Keep(t.keyBuf, peak)
	t.resBuf = parallel.Keep(t.resBuf, peak)
	t.traceBuf = parallel.Keep(t.traceBuf, peak*t.traceStride())
	t.knn.trim(peak)
	t.idxBuf = parallel.Keep(t.idxBuf, peak)
	t.frontierBuf = parallel.Keep(t.frontierBuf, peak)
	t.visitBuf = parallel.Keep(t.visitBuf, peak)
	t.nodeBuf = parallel.Keep(t.nodeBuf, peak)

	// The group lists hold views into frontier buffers (and chunk pointers)
	// past their length; a kept list must not keep a released buffer alive.
	r := &t.router
	for _, groups := range []*[]chunkGroup{&t.groupBuf, &r.perm, &r.groups, &r.pulledG, &r.pushedG} {
		*groups = parallel.Keep(*groups, peak)
		clear((*groups)[:cap(*groups)])
	}
	r.front[0] = parallel.Keep(r.front[0], peak)
	r.front[1] = parallel.Keep(r.front[1], peak)
	r.cost = parallel.Keep(r.cost, peak)
	r.exitArena = trimSlots(r.exitArena, peak)
	t.knnFoundBuf = trimSlots(t.knnFoundBuf, peak)
	ws := t.workers[:cap(t.workers)]
	for w := range ws {
		ws[w].front = parallel.Keep(ws[w].front, peak)
		ws[w].runs = parallel.Keep(ws[w].runs, peak)
	}
	t.l0Runs = parallel.Keep(t.l0Runs, peak)

	// The fork arenas (per-module lanes plus a merge buffer each) number as
	// many as the largest batch forked branches; a batch that forks again
	// makes its own.
	st := &t.upStats
	st.mergedKeys = parallel.Keep(st.mergedKeys, peak)
	st.mergedPts = parallel.Keep(st.mergedPts, peak)
	st.used = parallel.Keep(st.used, peak)
	clear(t.arenaFree)
	t.arenaFree = t.arenaFree[:0]
}

// trimFound applies the found-point rule (see above): Keep judges the
// buffers by max(what this batch found, a quarter of the stored points), so
// they may stay about as large as the tree. The final filter's distance
// copies are judged by what this batch found alone: a batch that fetched
// nothing keeps none past the slack, and a round of kNN batches keeps them.
func (t *Tree) trimFound() {
	found := t.found.size()
	used := max(found, t.Size()/4)
	t.found.trim(used)
	ws := t.workers[:cap(t.workers)]
	for w := range ws {
		ws[w].arena = parallel.Keep(ws[w].arena, used)
		ws[w].dists = parallel.Keep(ws[w].dists, found)
	}
}

// sized returns buf resliced to n elements (contents undefined), or a fresh
// n-element buffer when buf is too small. Only trimScratch releases batch
// scratch, so a small batch between two large ones keeps the large buffer.
func sized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// trimSlots applies Keep to a growSlots arena and, if it is kept, to every
// slot of it, including the slots past its current length.
func trimSlots[T any](arena [][]T, used int) [][]T {
	arena = parallel.Keep(arena, used)
	slots := arena[:cap(arena)]
	for i := range slots {
		slots[i] = parallel.Keep(slots[i], used)
	}
	return arena
}
