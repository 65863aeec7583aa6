package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"pimzdtree/internal/core"
	"pimzdtree/internal/geom"
	"pimzdtree/internal/morton"
	"pimzdtree/internal/parallel"
	"pimzdtree/internal/pim"
	"pimzdtree/internal/workload"
)

// Nominal rounds per second on the sizing box: the closed-loop library
// workloads do a fixed number of rounds, -seconds times this, so that their
// modeled metrics do not depend on how fast the host happens to be.
const (
	treeReadRoundsPerSec  = 8.5
	treeChurnRoundsPerSec = 18
)

// fixedRounds turns a nominal duration into a whole number of rounds per
// segment.
func fixedRounds(seconds, perSec float64) int {
	return nSeg * max(1, int(seconds*perSec/nSeg+0.5))
}

func newTree(points []geom.Point, modules int) *core.Tree {
	return core.New(core.Config{Dims: dims, Machine: machine(modules), Tuning: core.ThroughputOptimized}, points)
}

// storedAt reports whether the search for p ended in a leaf that holds p.
func storedAt(r core.SearchResult, p geom.Point) bool {
	t := r.Terminal
	if t == nil || !t.IsLeaf() {
		return false
	}
	for _, s := range t.Pts {
		if s == p {
			return true
		}
	}
	return false
}

// hostProbe times the host-side primitives on batches the workload really
// sends: Morton encoding, the radix sort and the semisort.
type hostProbe struct {
	keys                     int64
	encodeNs, sortNs, semiNs int64
}

func (h *hostProbe) run(tr *tracer, pts []geom.Point, rid int64) {
	keys := make([]uint64, len(pts))
	id := tr.open("morton.encode", 0, rid, 0)
	t0 := time.Now()
	for i, p := range pts {
		keys[i] = morton.EncodePoint(p)
	}
	h.encodeNs += int64(time.Since(t0))
	tr.close(id, len(pts))

	groups := append([]uint64(nil), keys...)
	id = tr.open("parallel.semisort", 0, rid, 0)
	t0 = time.Now()
	parallel.Semisort(groups, func(k uint64) uint64 { return pim.Hash64(k) & 2047 }) // module ids, as the wave router groups
	h.semiNs += int64(time.Since(t0))
	tr.close(id, len(pts))

	id = tr.open("parallel.sort", 0, rid, 0)
	t0 = time.Now()
	parallel.SortKeys(keys)
	h.sortNs += int64(time.Since(t0))
	tr.close(id, len(pts))
	h.keys += int64(len(pts))
}

func (h *hostProbe) metrics(out map[string]float64) {
	if h.keys == 0 {
		return
	}
	out["morton.encode_ns_per_key"] = float64(h.encodeNs) / float64(h.keys)
	out["parallel.sort_ns_per_key"] = float64(h.sortNs) / float64(h.keys)
	out["parallel.semisort_ns_per_key"] = float64(h.semiNs) / float64(h.keys)
}

// fixedCosts measures what one minimal batch costs on the index as it
// stands: a 1-point search plus a 1-point kNN, and a 4-point insert plus
// the delete that undoes it. These are the per-batch fixed costs a server
// pays once per epoch however few requests the epoch holds.
func fixedCosts(tr *tracer, q geom.Point, fresh []geom.Point, k int,
	search func([]geom.Point), knn func([]geom.Point, int), insert, remove func([]geom.Point), out map[string]float64) {
	const reps = 20
	var ms runtime.MemStats
	mallocs := func() uint64 { runtime.ReadMemStats(&ms); return ms.Mallocs }
	one := []geom.Point{q}
	var qNs, uNs []float64
	a0 := mallocs()
	for i := 0; i < reps; i++ {
		id := tr.open("probe.query_fixed", 0, int64(i), 0)
		t0 := time.Now()
		search(one)
		knn(one, k)
		qNs = append(qNs, float64(time.Since(t0)))
		tr.close(id, 2)
	}
	a1 := mallocs()
	for i := 0; i < reps; i++ {
		id := tr.open("probe.update_fixed", 0, int64(i), 0)
		t0 := time.Now()
		insert(fresh)
		remove(fresh)
		uNs = append(uNs, float64(time.Since(t0)))
		tr.close(id, 2*len(fresh))
	}
	a2 := mallocs()
	out["core.query_fixed_us"] = median(qNs) / 1e3
	out["core.update_fixed_ms"] = median(uNs) / 1e6
	out["core.allocs_per_batch.query"] = float64(a1-a0) / (2 * reps)
	out["core.allocs_per_batch.update"] = float64(a2-a1) / (2 * reps)
}

// treeFixedCosts runs fixedCosts against a bare tree.
func treeFixedCosts(tr *tracer, t *core.Tree, q geom.Point, fresh []geom.Point, out map[string]float64) {
	fixedCosts(tr, q, fresh, 10,
		func(p []geom.Point) { t.Search(p) },
		func(p []geom.Point, k int) { t.KNN(p, k) },
		t.Insert, t.Delete, out)
}

// fixedWork is the measured region of the closed-loop library workloads:
// rounds rounds on one caller, each a sample, cut into nSeg segments whose
// wall is the sum of their rounds' walls. Traced, every call into the tree
// goes through the returned recorder and every tenth round's batch (lastBatch)
// is also run through the host probes, outside the round's clock.
func fixedWork(tree *core.Tree, rounds int, limit time.Duration, tr *tracer, host *hostProbe,
	round func(*layerRec) (lat time.Duration, ops int, ok bool), lastBatch func() []geom.Point) (*region, *layerRec) {
	r := &region{modules: tree.P(), limit: limit, samples: make([]sample, 0, rounds)}
	var rec *layerRec
	if tr != nil {
		rec = &layerRec{tr: tr, prefix: "core", modeled: tree.System().Metrics}
	}
	m := meter{modeled: tree.System().Metrics}
	m.begin()
	for i := 0; i < rounds; i++ {
		lat, ops, ok := round(rec)
		seg := i * nSeg / rounds
		r.samples = append(r.samples, sample{seg: int32(seg), ops: int32(ops), latNs: int64(lat), ok: ok})
		r.segWall[seg] += lat.Seconds()
		if tr != nil && i%10 == 0 {
			host.run(tr, lastBatch(), int64(i))
		}
	}
	m.end(r)
	return r, rec
}

// ---------------------------------------------------------------- tree-read

// querySet is one round's batches.
type querySet struct {
	search []geom.Point
	stored []bool // search[i] is a stored point (the others are perturbed, and almost always absent)
	knn    []geom.Point
	boxes  []geom.Box
}

// reference is the answer a query set got on its first warm-up round; the
// tree is never written, so every later round must repeat it exactly.
type reference struct {
	found  []bool
	knnSum uint64 // sum of every neighbour distance
	boxSum int64
}

// treeRead is the paper's query panel on one large tree.
type treeRead struct {
	c    config
	tree *core.Tree
	sets []querySet
	refs []reference
	next int // next round index
	faults
	rec   *layerRec
	host  hostProbe
	oq    oracleQueries
	fresh []geom.Point
}

const (
	treeReadK     = 10
	treeReadLimit = 400 * time.Millisecond
	treeReadSets  = nSeg // so that every segment, and every region, runs each set equally often
)

func (w *treeRead) prepare(st *setupTimes) error {
	c := w.c
	t0 := time.Now()
	data := workload.OSMLike(dataSeed, scaled(2_000_000, c.scale, 4000), dims)
	// The query pools are fixed with the data and every run goes through
	// all of them: a handful of kNN queries from isolated points, whose
	// candidate sphere sweeps a whole dense cluster, carry a third of the
	// channel traffic, so a run that drew its own queries would report
	// mostly how many of those it drew. The seed decides which queries
	// share a batch, and in what order.
	pool := rand.New(rand.NewSource(dataSeed))
	hot := hotPool(pool, data, len(data)/100)
	half := calibratedHalf(dataSeed+1, data, 64)
	nS, nK, nB := scaled(16384, c.scale, 64), scaled(2048, c.scale, 16), scaled(2048, c.scale, 16)
	totS, totK, totB := treeReadSets*nS, treeReadSets*nK, treeReadSets*nB
	// A quarter of each pool falls in the hot cluster.
	search := append(sampleOf(pool, hot, totS/8), sampleOf(pool, data, totS/2-totS/8)...)
	stored := make([]bool, totS)
	for i := range search {
		stored[i] = true
	}
	search = append(search, perturbedOf(pool, hot, totS/8)...)
	search = append(search, perturbedOf(pool, data, totS-len(search))...)
	knn := append(perturbedOf(pool, hot, totK/4), perturbedOf(pool, data, totK-totK/4)...)
	boxes := boxesAround(append(sampleOf(pool, hot, totB/4), sampleOf(pool, data, totB-totB/4)...), half)

	rng := rand.New(rand.NewSource(c.seed))
	rng.Shuffle(totS, func(i, j int) {
		search[i], search[j] = search[j], search[i]
		stored[i], stored[j] = stored[j], stored[i]
	})
	rng.Shuffle(totK, func(i, j int) { knn[i], knn[j] = knn[j], knn[i] })
	rng.Shuffle(totB, func(i, j int) { boxes[i], boxes[j] = boxes[j], boxes[i] })
	for s := 0; s < treeReadSets; s++ {
		w.sets = append(w.sets, querySet{
			search: search[s*nS : (s+1)*nS], stored: stored[s*nS : (s+1)*nS],
			knn: knn[s*nK : (s+1)*nK], boxes: boxes[s*nB : (s+1)*nB],
		})
	}
	all := w.sets[0]
	w.oq = pickOracleQueries(rng, all.search, all.knn, treeReadK, all.boxes)
	w.fresh = workload.CosmosLike(c.seed+2, 4, dims)
	st.gen = time.Since(t0).Seconds()

	t0 = time.Now()
	w.tree = newTree(data, 2048)
	st.build = time.Since(t0).Seconds()

	// Warm-up: one pass over the query sets fills the lazy leaf lanes and
	// the scratch pools, and fixes each set's reference answer.
	w.refs = make([]reference, treeReadSets)
	for i := 0; i < treeReadSets; i++ {
		w.round(nil, nil)
	}
	if w.wrong > 0 {
		return fmt.Errorf("tree-read warm-up: %d wrong answers: %v", w.wrong, w.notes)
	}
	return nil
}

// round runs the next round and returns its wall time and whether every
// answer matched the set's reference.
func (w *treeRead) round(tr *tracer, rec *layerRec) (time.Duration, int, bool) {
	i := w.next
	w.next++
	qs := &w.sets[i%len(w.sets)]
	var (
		res []core.SearchResult
		nb  [][]core.Neighbor
		cnt []int64
	)
	ops := len(qs.search) + len(qs.knn) + len(qs.boxes)
	rid := int64(i)
	id := tr.open("round", 0, rid, 0)
	t0 := time.Now()
	rec.call(opSearch, len(qs.search), id, rid, func() { res = w.tree.Search(qs.search) })
	rec.call(opKNN, len(qs.knn), id, rid, func() { nb = w.tree.KNN(qs.knn, treeReadK) })
	rec.call(opBox, len(qs.boxes), id, rid, func() { cnt = w.tree.BoxCount(qs.boxes) })
	lat := time.Since(t0)
	tr.close(id, ops)
	return lat, ops, w.check(i, qs, res, nb, cnt)
}

func (w *treeRead) check(i int, qs *querySet, res []core.SearchResult, nb [][]core.Neighbor, cnt []int64) bool {
	var knnSum uint64
	for _, list := range nb {
		for _, n := range list {
			knnSum += n.Dist
		}
	}
	var boxSum int64
	for _, c := range cnt {
		boxSum += c
	}
	ref := &w.refs[i%len(w.refs)]
	if ref.found == nil { // first round of this set
		ref.found = make([]bool, len(res))
		for j := range res {
			ref.found[j] = storedAt(res[j], qs.search[j])
			if qs.stored[j] && !ref.found[j] {
				w.fail("round %d: stored point %d not found", i, j)
			}
		}
		ref.knnSum, ref.boxSum = knnSum, boxSum
		return w.wrong == 0
	}
	ok := true
	if knnSum != ref.knnSum || boxSum != ref.boxSum {
		w.fail("round %d: kNN or box answers differ from the set's reference", i)
		ok = false
	}
	// Membership needs a leaf scan per point, so each round checks one
	// sixteenth of the batch, rotating.
	n := len(res) / 16
	for j := (i % 16) * n; j < (i%16+1)*n; j++ {
		if storedAt(res[j], qs.search[j]) != ref.found[j] {
			w.fail("round %d: search %d differs from the set's reference", i, j)
			ok = false
			break
		}
	}
	return ok
}

func (w *treeRead) measure(frac float64, tr *tracer) (*region, error) {
	rounds := fixedRounds(w.c.seconds*frac, treeReadRoundsPerSec)
	var r *region
	r, w.rec = fixedWork(w.tree, rounds, treeReadLimit, tr, &w.host,
		func(rec *layerRec) (time.Duration, int, bool) { return w.round(tr, rec) },
		func() []geom.Point { return w.sets[(w.next-1)%len(w.sets)].search })
	return r, nil
}

func (w *treeRead) layers(tr *tracer, r *region, out map[string]float64) error {
	w.rec.metrics(out)
	w.host.metrics(out)
	treeFixedCosts(tr, w.tree, w.sets[0].knn[0], w.fresh, out)
	return nil
}

func (w *treeRead) verify() (int, int, []string) {
	got := answers{counts: w.tree.BoxCount(w.oq.boxes), nbrs: w.tree.KNN(w.oq.knn, w.oq.k)}
	for i, r := range w.tree.Search(w.oq.search) {
		got.found = append(got.found, storedAt(r, w.oq.search[i]))
	}
	checked, wrong, notes := bruteForce(w.tree.Points(), w.oq).compare(got)
	return checked, wrong + w.wrong, append(notes, w.notes...)
}

func (w *treeRead) close() {}

// --------------------------------------------------------------- tree-churn

// treeChurn is the update path at the paper's batch size: every round
// inserts a batch, deletes the batch inserted four rounds earlier, and
// searches what it just inserted.
type treeChurn struct {
	c     config
	tree  *core.Tree
	n     int          // points the tree was built over
	batch int          // points per insert
	fresh []geom.Point // every batch the run will insert, back to back
	next  int
	faults
	rec     *layerRec
	host    hostProbe
	boxHalf uint32
}

const (
	churnLag   = 4 // rounds a batch lives before it is deleted
	churnLimit = 250 * time.Millisecond
	churnWarm  = 20
)

func (w *treeChurn) rounds(frac float64) int {
	return fixedRounds(w.c.seconds*frac, treeChurnRoundsPerSec)
}

func (w *treeChurn) prepare(st *setupTimes) error {
	c := w.c
	t0 := time.Now()
	w.n = scaled(1_000_000, c.scale, 4000)
	w.batch = scaled(8192, c.scale, 64)
	data := workload.Uniform(dataSeed, w.n, dims)
	total := churnWarm + w.rounds(1)
	if c.trace {
		total = churnWarm + w.rounds(1.0/6) + w.rounds(1.0/3)
	}
	// Like tree-read's queries, the points to insert are fixed with the
	// data, and the seed decides which share a batch.
	w.fresh = workload.CosmosLike(dataSeed+1, (total+1)*w.batch, dims) // one spare batch for the fixed-cost probe
	rand.New(rand.NewSource(c.seed)).Shuffle(len(w.fresh), func(i, j int) { w.fresh[i], w.fresh[j] = w.fresh[j], w.fresh[i] })
	w.boxHalf = calibratedHalf(dataSeed+2, data, 64)
	st.gen = time.Since(t0).Seconds()

	t0 = time.Now()
	w.tree = newTree(data, 2048)
	st.build = time.Since(t0).Seconds()

	for i := 0; i < churnWarm; i++ {
		w.round(nil, nil)
	}
	if w.wrong > 0 {
		return fmt.Errorf("tree-churn warm-up: %d wrong answers: %v", w.wrong, w.notes)
	}
	return nil
}

func (w *treeChurn) batchOf(i int) []geom.Point { return w.fresh[i*w.batch : (i+1)*w.batch] }

func (w *treeChurn) round(tr *tracer, rec *layerRec) (time.Duration, int, bool) {
	i := w.next
	w.next++
	ins := w.batchOf(i)
	ops := 2 * len(ins)
	var res []core.SearchResult
	rid := int64(i)
	id := tr.open("round", 0, rid, 0)
	t0 := time.Now()
	rec.call(opInsert, len(ins), id, rid, func() { w.tree.Insert(ins) })
	if i >= churnLag {
		del := w.batchOf(i - churnLag)
		ops += len(del)
		rec.call(opDelete, len(del), id, rid, func() { w.tree.Delete(del) })
	}
	rec.call(opSearch, len(ins), id, rid, func() { res = w.tree.Search(ins) })
	lat := time.Since(t0)
	tr.close(id, ops)

	// Every inserted point must be found; a leaf scan per point is not
	// free, so measured rounds check one eighth of the batch, rotating.
	lo, hi := 0, len(ins)
	if i >= churnWarm {
		n := len(ins) / 8
		lo, hi = (i%8)*n, (i%8+1)*n
	}
	ok := true
	for j := lo; j < hi; j++ {
		if !storedAt(res[j], ins[j]) {
			w.fail("round %d: inserted point %d not found", i, j)
			ok = false
			break
		}
	}
	return lat, ops, ok
}

func (w *treeChurn) measure(frac float64, tr *tracer) (*region, error) {
	var r *region
	r, w.rec = fixedWork(w.tree, w.rounds(frac), churnLimit, tr, &w.host,
		func(rec *layerRec) (time.Duration, int, bool) { return w.round(tr, rec) },
		func() []geom.Point { return w.batchOf(w.next - 1) })
	return r, nil
}

func (w *treeChurn) layers(tr *tracer, r *region, out map[string]float64) error {
	w.rec.metrics(out)
	w.host.metrics(out)
	spare := w.batchOf(len(w.fresh)/w.batch - 1)
	treeFixedCosts(tr, w.tree, perturb(rand.New(rand.NewSource(w.c.seed)), spare[4]), spare[:4], out)
	return nil
}

func (w *treeChurn) verify() (int, int, []string) {
	wrong, notes := w.wrong, w.notes
	// The tree holds what it was built over plus the batches not yet
	// deleted: the last churnLag of them.
	live := min(w.next, churnLag)
	if want := w.n + live*w.batch; w.tree.Size() != want {
		wrong++
		notes = append(notes, fmt.Sprintf("Size() = %d, want %d", w.tree.Size(), want))
	}
	rng := rand.New(rand.NewSource(w.c.seed + 3))
	// Search points: live inserts, deleted inserts and perturbed ones.
	liveLo, deadLo := (w.next-live)*w.batch, max(0, w.next-live-churnLag)*w.batch
	pool := append([]geom.Point(nil), w.fresh[liveLo:w.next*w.batch]...)
	pool = append(pool, w.fresh[deadLo:liveLo]...)
	pool = append(pool, perturbedOf(rng, pool, len(pool)/2)...)
	knn := perturbedOf(rng, pool, 4*oracleSample)
	oq := pickOracleQueries(rng, pool, knn, 10, boxesAround(sampleOf(rng, pool, 4*oracleSample), w.boxHalf))
	got := answers{counts: w.tree.BoxCount(oq.boxes), nbrs: w.tree.KNN(oq.knn, oq.k)}
	for i, r := range w.tree.Search(oq.search) {
		got.found = append(got.found, storedAt(r, oq.search[i]))
	}
	checked, bad, more := bruteForce(w.tree.Points(), oq).compare(got)
	return checked + 1, wrong + bad, append(notes, more...)
}

func (w *treeChurn) close() {}
