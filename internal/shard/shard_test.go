package shard

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"pimzdtree/internal/core"
	"pimzdtree/internal/costmodel"
	"pimzdtree/internal/geom"
	"pimzdtree/internal/metrics"
	"pimzdtree/internal/morton"
	"pimzdtree/internal/obs"
	"pimzdtree/internal/workload"
)

func testMachine(p int) costmodel.Machine {
	m := costmodel.UPMEMServer()
	m.PIMModules = p
	return m
}

func testConfig(trees int) Config {
	return Config{Trees: trees, Dims: 3, Machine: testMachine(64), Tuning: core.ThroughputOptimized}
}

func randPoints(rng *rand.Rand, n int, dims uint8, limit uint32) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		p := geom.Point{Dims: dims}
		for d := uint8(0); d < dims; d++ {
			p.Coords[d] = rng.Uint32() % limit
		}
		pts[i] = p
	}
	return pts
}

// refBackend is the unsharded reference: the per-tree batch calls the
// shard router makes, on one bare core.Tree.
type refBackend struct{ t *core.Tree }

func (b refBackend) search(pts []geom.Point) []bool { return b.t.ContainsBatch(pts) }
func (b refBackend) knn(pts []geom.Point, k int) [][]core.Neighbor {
	return b.t.KNN(pts, k)
}
func (b refBackend) boxCount(boxes []geom.Box) []int64 { return b.t.BoxCount(boxes) }

// TestShardedDifferential: every batch op on a sharded index must return
// exactly what the same op returns on one tree over the same points —
// including kNN ties, which both sides order under core.NeighborLess.
func TestShardedDifferential(t *testing.T) {
	for _, tc := range []struct {
		name  string
		trees int
		limit uint32 // small limits force duplicate coords and distance ties
	}{
		{"s1_uniform", 1, 1 << 20},
		{"s2_uniform", 2, 1 << 20},
		{"s4_uniform", 4, 1 << 20},
		{"s4_ties", 4, 64},
		{"s8_uniform", 8, 1 << 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			data := randPoints(rng, 6000, 3, tc.limit)
			warm, extra := data[:4000], data[4000:]

			ref := refBackend{t: core.New(core.Config{
				Dims: 3, Machine: testMachine(64), Tuning: core.ThroughputOptimized}, warm)}
			x := New(testConfig(tc.trees), warm)
			if len(x.sh) != tc.trees {
				t.Fatalf("shards = %d, want %d", len(x.sh), tc.trees)
			}
			if x.Size() != ref.t.Size() {
				t.Fatalf("size %d, want %d", x.Size(), ref.t.Size())
			}

			step := func(stage string) {
				queries := append(append([]geom.Point{}, warm[:300]...),
					randPoints(rng, 300, 3, tc.limit)...)
				gotS := x.SearchBatch(queries)
				wantS := ref.search(queries)
				for i := range gotS {
					if gotS[i] != wantS[i] {
						t.Fatalf("%s: search[%d] = %v, want %v", stage, i, gotS[i], wantS[i])
					}
				}
				for _, k := range []int{1, 5, 17} {
					gotK := x.KNNBatch(queries[:120], k)
					wantK := ref.knn(queries[:120], k)
					for i := range gotK {
						if len(gotK[i]) != len(wantK[i]) {
							t.Fatalf("%s: knn k=%d q=%d: %d neighbors, want %d",
								stage, k, i, len(gotK[i]), len(wantK[i]))
						}
						for j := range gotK[i] {
							if gotK[i][j] != wantK[i][j] {
								t.Fatalf("%s: knn k=%d q=%d n=%d: %+v, want %+v",
									stage, k, i, j, gotK[i][j], wantK[i][j])
							}
						}
					}
				}
				boxes := workload.QueryBoxes(int64(len(queries)), warm, 48, 24)
				gotB := x.BoxCountBatch(boxes)
				wantB := ref.boxCount(boxes)
				for i := range gotB {
					if gotB[i] != wantB[i] {
						t.Fatalf("%s: boxcount[%d] = %d, want %d", stage, i, gotB[i], wantB[i])
					}
				}
			}

			step("warm")
			x.InsertBatch(extra)
			ref.t.Insert(extra)
			step("after-insert")
			x.DeleteBatch(warm[:700])
			ref.t.Delete(warm[:700])
			step("after-delete")

			if got, want := x.Size(), ref.t.Size(); got != want {
				t.Fatalf("final size %d, want %d", got, want)
			}
			if x.Epoch() != 2 {
				t.Fatalf("epoch = %d, want 2 (one per update batch)", x.Epoch())
			}
		})
	}
}

// TestEdgeBatchesMatchTree: the edge batches — empty batches, an empty
// index, k above the stored count and k = 0 — answer exactly what one bare
// tree answers, at one shard and at four, and every update call publishes
// exactly one epoch, empty batches included.
func TestEdgeBatchesMatchTree(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	small := randPoints(rng, 10, 3, 1<<20)
	queries := randPoints(rng, 12, 3, 1<<20)
	boxes := workload.QueryBoxes(3, small, 6, 1<<19)
	for _, trees := range []int{1, 4} {
		for _, tc := range []struct {
			name string
			warm []geom.Point
		}{{"empty-index", nil}, {"10-points", small}} {
			t.Run(fmt.Sprintf("s%d/%s", trees, tc.name), func(t *testing.T) {
				x := New(testConfig(trees), tc.warm)
				ref := refBackend{t: core.New(core.Config{
					Dims: 3, Machine: testMachine(64), Tuning: core.ThroughputOptimized}, tc.warm)}

				if got := x.SearchBatch(nil); len(got) != 0 {
					t.Errorf("empty search batch: %v", got)
				}
				if got := x.KNNBatch(nil, 3); len(got) != 0 {
					t.Errorf("empty kNN batch: %v", got)
				}
				if got := x.BoxCountBatch(nil); len(got) != 0 {
					t.Errorf("empty box batch: %v", got)
				}
				if got, want := fmt.Sprint(x.SearchBatch(queries)), fmt.Sprint(ref.search(queries)); got != want {
					t.Errorf("search = %s, want %s", got, want)
				}
				if got, want := fmt.Sprint(x.BoxCountBatch(boxes)), fmt.Sprint(ref.boxCount(boxes)); got != want {
					t.Errorf("box count = %s, want %s", got, want)
				}
				for _, k := range []int{0, 1, len(small) + 15} {
					got, want := x.KNNBatch(queries, k), ref.knn(queries, k)
					if len(got) != len(queries) {
						t.Fatalf("k=%d: %d answers for %d queries", k, len(got), len(queries))
					}
					for i := range got {
						if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
							t.Errorf("k=%d q=%d: %v, want %v", k, i, got[i], want[i])
						}
					}
				}

				epoch := x.Epoch()
				for _, up := range []struct {
					name  string
					apply func([]geom.Point)
					pts   []geom.Point
				}{
					{"insert", x.InsertBatch, queries[:4]},
					{"empty insert", x.InsertBatch, nil},
					{"delete", x.DeleteBatch, queries[:2]},
					{"empty delete", x.DeleteBatch, nil},
				} {
					up.apply(up.pts)
					if x.Epoch() != epoch+1 {
						t.Fatalf("%s moved the epoch %d -> %d, want one step", up.name, epoch, x.Epoch())
					}
					epoch++
				}
				if want := len(tc.warm) + 2; x.Size() != want {
					t.Errorf("size %d after the updates, want %d", x.Size(), want)
				}
			})
		}
	}
}

// TestFanoutCaptureOneShard: at one shard the router still reports every
// batch's fan-out — one span for shard 0 carrying the whole batch, a
// fan-out of exactly 1 per query, nothing pruned.
func TestFanoutCaptureOneShard(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	data := randPoints(rng, 3000, 3, 1<<20)
	x := New(testConfig(1), data)
	x.SetFanoutCapture(true)
	queries := data[:40]
	boxes := workload.QueryBoxes(5, data, 24, 1<<16)
	for _, tc := range []struct {
		op  string
		n   int
		run func()
	}{
		{"search", len(queries), func() { x.SearchBatch(queries) }},
		{"knn", len(queries), func() { x.KNNBatch(queries, 5) }},
		{"box", len(boxes), func() { x.BoxCountBatch(boxes) }},
		{"insert", 30, func() { x.InsertBatch(randPoints(rng, 30, 3, 1<<20)) }},
		{"delete", len(queries), func() { x.DeleteBatch(queries) }},
	} {
		tc.run()
		rep := x.TakeFanout()
		if rep == nil {
			t.Fatalf("%s: no fan-out report at one shard", tc.op)
		}
		if rep.Op != tc.op || len(rep.Shards) != 1 || rep.Shards[0].Shard != 0 ||
			rep.Shards[0].Queries != tc.n {
			t.Fatalf("%s: report %+v, want one span for shard 0 with %d queries", tc.op, rep, tc.n)
		}
		if rep.Pruned != 0 {
			t.Errorf("%s: %d probes pruned, want 0", tc.op, rep.Pruned)
		}
		if len(rep.PerQuery) != tc.n {
			t.Fatalf("%s: %d per-query widths, want %d", tc.op, len(rep.PerQuery), tc.n)
		}
		for i, w := range rep.PerQuery {
			if w != 1 {
				t.Fatalf("%s: query %d fans out to %d shards, want 1", tc.op, i, w)
			}
		}
	}
}

// TestBoxCoverProperties: the shard cover of a query box must be complete
// (every shard storing a point inside the box is covered — guaranteed by
// the aligned-block tiling) and minimal (a covered shard's key range
// really holds a key inside the query box, witnessed by intersecting the
// query with the covering block and re-encoding the corner).
func TestBoxCoverProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	data := randPoints(rng, 5000, 3, 1<<18)
	x := New(testConfig(8), data)
	boxes := workload.QueryBoxes(13, data, 64, 40)
	for bi, b := range boxes {
		cover := map[int]bool{}
		for s, sh := range x.sh {
			if sh.tree.Size() == 0 || !sh.intersects(b) {
				continue
			}
			cover[s] = true
			witness := false
			for _, blk := range sh.blocks {
				if !blk.Intersects(b) {
					continue
				}
				// The intersection's low corner is a concrete point in both
				// boxes; its key must belong to the shard's range.
				p := blk.Lo
				for d := 0; d < int(x.cfg.Dims); d++ {
					if b.Lo.Coords[d] > p.Coords[d] {
						p.Coords[d] = b.Lo.Coords[d]
					}
				}
				if k := morton.EncodePoint(p); k < sh.lo || k > sh.hi {
					t.Fatalf("box %d: shard %d witness key %#x outside range [%#x,%#x]",
						bi, s, k, sh.lo, sh.hi)
				}
				witness = true
				break
			}
			if !witness {
				t.Fatalf("box %d: shard %d covered but no block intersects query %v", bi, s, b)
			}
		}
		for s, sh := range x.sh {
			if cover[s] {
				continue
			}
			for _, p := range sh.tree.Points() {
				if b.Contains(p) {
					t.Fatalf("box %d: shard %d uncovered but stores %v inside query", bi, s, p)
				}
			}
		}
	}
}

// identityScenario drives one fixed batch schedule against either a bare
// tree (unsharded path) or a shard.Index, both fully instrumented, and
// returns the modeled-only metrics exposition and the retained-event
// JSONL export.
func identityScenario(t *testing.T, trees int) (exposition, jsonl []byte) {
	t.Helper()
	reg := metrics.New()
	rec := obs.New()
	rec.SetSink(metrics.NewObsSink(reg))

	data := workload.Uniform(99, 20000, 3)
	warm := data[:15000]
	queries := workload.QueryPoints(55, warm, 800)
	boxes := workload.QueryBoxes(56, warm, 64, 32)

	var (
		search func([]geom.Point) []bool
		knn    func([]geom.Point, int) [][]core.Neighbor
		boxc   func([]geom.Box) []int64
		insert func([]geom.Point)
		del    func([]geom.Point)
	)
	if trees == 0 { // bare tree, the unsharded path
		tr := core.New(core.Config{
			Dims: 3, Machine: testMachine(64), Tuning: core.ThroughputOptimized, Obs: rec}, warm)
		search = func(p []geom.Point) []bool { return tr.ContainsBatch(p) }
		knn = func(p []geom.Point, k int) [][]core.Neighbor { return tr.KNN(p, k) }
		boxc = func(b []geom.Box) []int64 { return tr.BoxCount(b) }
		insert = tr.Insert
		del = tr.Delete
	} else {
		cfg := testConfig(trees)
		cfg.Obs = rec
		x := New(cfg, warm)
		search, knn, boxc = x.SearchBatch, x.KNNBatch, x.BoxCountBatch
		insert, del = x.InsertBatch, x.DeleteBatch
	}

	search(queries)
	knn(queries[:200], 8)
	boxc(boxes)
	insert(data[15000:17000])
	del(warm[:1000])
	search(queries[:400])
	knn(queries[200:300], 4)

	var eb, jb bytes.Buffer
	if err := reg.WriteTextOpts(&eb, metrics.ExpoOpts{ModeledOnly: true}); err != nil {
		t.Fatalf("exposition: %v", err)
	}
	if err := rec.ExportJSONL(&jb); err != nil {
		t.Fatalf("jsonl: %v", err)
	}
	return eb.Bytes(), jb.Bytes()
}

// TestSingleTreeByteIdentity: with sharding off (Trees == 1) the modeled
// metrics exposition and trace export must be byte-identical to the
// unsharded path, at GOMAXPROCS 1, 4 and 16.
func TestSingleTreeByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var refExp, refJSON []byte
	for _, procs := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
			treeExp, treeJSON := identityScenario(t, 0)
			shExp, shJSON := identityScenario(t, 1)
			if !bytes.Equal(treeExp, shExp) {
				t.Errorf("S=1 exposition differs from unsharded path (%d vs %d bytes)",
					len(treeExp), len(shExp))
			}
			if !bytes.Equal(treeJSON, shJSON) {
				t.Errorf("S=1 trace export differs from unsharded path (%d vs %d bytes)",
					len(treeJSON), len(shJSON))
			}
			if refExp == nil {
				refExp, refJSON = treeExp, treeJSON
				return
			}
			if !bytes.Equal(refExp, treeExp) || !bytes.Equal(refJSON, treeJSON) {
				t.Errorf("unsharded exports diverged at GOMAXPROCS=%d", procs)
			}
		})
	}
}

// TestShardedModeledDeterminism: the sharded path's modeled exposition
// and merged trace export must be byte-identical at GOMAXPROCS 1, 4, 16
// — fork-join shard execution must never leak the schedule into the
// merged stream.
func TestShardedModeledDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var refExp, refJSON []byte
	for _, procs := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
			exp, jsonl := identityScenario(t, 4)
			if len(exp) == 0 || len(jsonl) == 0 {
				t.Fatal("empty export")
			}
			if refExp == nil {
				refExp, refJSON = exp, jsonl
				return
			}
			if !bytes.Equal(refExp, exp) {
				t.Errorf("S=4 exposition diverged at GOMAXPROCS=%d", procs)
			}
			if !bytes.Equal(refJSON, jsonl) {
				t.Errorf("S=4 trace export diverged at GOMAXPROCS=%d", procs)
			}
		})
	}
}

// TestRebalanceSplitsHotShard: a Zipfian-style storm on the low-Morton
// shard must trigger a repartition that shrinks the hot shard's slice of
// the key space, without perturbing query results.
func TestRebalanceSplitsHotShard(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data := randPoints(rng, 8000, 3, 1<<16)
	cfg := testConfig(4)
	cfg.Rebalance = true
	cfg.CheckEvery = 1
	cfg.MinShardPoints = 16
	x := New(cfg, data)
	ref := refBackend{t: core.New(core.Config{
		Dims: 3, Machine: testMachine(64), Tuning: core.ThroughputOptimized}, data)}

	hotBefore := x.sh[0].tree.Size()
	hiBefore := x.sh[0].hi

	// Hot-shard storm: searches confined to the low-coordinate corner
	// (low Morton keys → shard 0), plus tiny updates to cross epoch
	// boundaries where the rebalancer runs.
	for round := 0; round < 6; round++ {
		hot := randPoints(rng, 2000, 3, 1<<13)
		x.SearchBatch(hot)
		up := randPoints(rng, 4, 3, 1<<16)
		x.InsertBatch(up)
		ref.t.Insert(up)
		if x.Rebalances() > 0 {
			break
		}
	}
	if x.Rebalances() == 0 {
		t.Fatal("hot-shard storm triggered no rebalance")
	}
	if x.MigratedPoints() == 0 {
		t.Error("rebalance migrated no points")
	}
	if x.sh[0].hi >= hiBefore && x.sh[0].tree.Size() >= hotBefore {
		t.Errorf("hot shard did not shrink: size %d->%d, hi %#x->%#x",
			hotBefore, x.sh[0].tree.Size(), hiBefore, x.sh[0].hi)
	}

	// Post-migration correctness: results still match the single tree.
	queries := append(randPoints(rng, 200, 3, 1<<16), data[:200]...)
	gotS, wantS := x.SearchBatch(queries), ref.search(queries)
	for i := range gotS {
		if gotS[i] != wantS[i] {
			t.Fatalf("post-migration search[%d] = %v, want %v", i, gotS[i], wantS[i])
		}
	}
	gotK, wantK := x.KNNBatch(queries[:64], 9), ref.knn(queries[:64], 9)
	for i := range gotK {
		for j := range gotK[i] {
			if gotK[i][j] != wantK[i][j] {
				t.Fatalf("post-migration knn q=%d n=%d: %+v, want %+v",
					i, j, gotK[i][j], wantK[i][j])
			}
		}
	}
	st := x.Stats()
	if st.Rebalances != x.Rebalances() || st.Shards != 4 || st.Points != x.Size() {
		t.Errorf("stats inconsistent: %+v", st)
	}
}

// TestStatsAndMetrics: snapshot surfaces stay coherent through updates.
func TestStatsAndMetrics(t *testing.T) {
	data := workload.Uniform(5, 4000, 3)
	cfg := testConfig(4)
	cfg.LoadStats = true
	x := New(cfg, data[:3000])
	st := x.Stats()
	if st.Shards != 4 || st.Points != 3000 || len(st.PerShard) != 4 {
		t.Fatalf("stats: %+v", st)
	}
	sum := 0
	for i, ps := range st.PerShard {
		sum += ps.Points
		lo, hi := x.rangeOf(i)
		if ps.Lo != lo || ps.Hi != hi {
			t.Errorf("shard %d range [%#x,%#x], want [%#x,%#x]", i, ps.Lo, ps.Hi, lo, hi)
		}
		if ps.PrefixLen != morton.CommonPrefixLen(lo, hi, 3) {
			t.Errorf("shard %d prefix len %d", i, ps.PrefixLen)
		}
	}
	if sum != 3000 {
		t.Errorf("per-shard points sum %d, want 3000", sum)
	}
	cycles, bytesV := x.ModuleLoads()
	if len(cycles) != 4*64 || len(bytesV) != 4*64 {
		t.Errorf("module loads %d/%d, want %d", len(cycles), len(bytesV), 4*64)
	}
	before := x.Metrics()
	x.InsertBatch(data[3000:])
	after := x.Metrics()
	if after.TotalSeconds() <= before.TotalSeconds() {
		t.Error("aggregate modeled seconds did not advance across an insert batch")
	}
	if got := len(x.ShardMetrics()); got != 4 {
		t.Errorf("ShardMetrics len %d", got)
	}
	if x.Imbalance() < 1 {
		t.Errorf("imbalance %f < 1", x.Imbalance())
	}
}

// The warm-up partition and a bulk batch are routed through the same
// scatter scratch; neither may stay pinned under an index that goes back to
// small batches.
func TestRouteScratchFollowsBatchSize(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	x := New(testConfig(4), randPoints(rng, 60_000, 3, 1<<20))
	if x.scatterPts != nil || x.scatterIdx != nil || x.ids != nil {
		t.Errorf("New left its partition scratch behind (cap %d)", cap(x.scatterPts))
	}
	if x.Size() != 60_000 {
		t.Fatalf("index holds %d points, want 60000", x.Size())
	}
	x.InsertBatch(randPoints(rng, 100_000, 3, 1<<20))
	if cap(x.scatterPts) < 100_000 {
		t.Fatalf("bulk batch did not grow the scatter scratch (cap %d)", cap(x.scatterPts))
	}
	x.SearchBatch(randPoints(rng, 16, 3, 1<<20))
	if c := cap(x.scatterPts); c != 16 {
		t.Errorf("scatter scratch has cap %d after a 16-point batch, want 16", c)
	}
	// Same-sized and moderately smaller batches keep the buffer.
	x.SearchBatch(randPoints(rng, 20_000, 3, 1<<20))
	before := &x.scatterPts[0]
	x.SearchBatch(randPoints(rng, 2_000, 3, 1<<20))
	if &x.scatterPts[0] != before {
		t.Error("a 2000-point batch after a 20000-point one reallocated the scatter scratch")
	}
}

// BenchmarkSmallBatch: a serving-sized batch (16 points, or 16 boxes)
// through a one-shard index — the host cost of the router path at S=1.
func BenchmarkSmallBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(29))
	data := randPoints(rng, 20000, 3, 1<<20)
	x := New(testConfig(1), data)
	qs := data[:16]
	fresh := randPoints(rng, 16, 3, 1<<20)
	boxes := workload.QueryBoxes(31, data, 16, 1<<14)
	for _, bc := range []struct {
		name string
		run  func()
	}{
		{"search", func() { x.SearchBatch(qs) }},
		{"knn", func() { x.KNNBatch(qs, 8) }},
		{"box", func() { x.BoxCountBatch(boxes) }},
		{"insert+delete", func() { x.InsertBatch(fresh); x.DeleteBatch(fresh) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc.run()
			}
		})
	}
}

// TestShardRecordersSampleModules: the shard-local recorders take the
// parent recorder's module-sampling cadence, so merged rounds carry load
// profiles. At cadence 1 every merged round has one. At cadence 16, a
// stream of one-point searches, each far shorter than 16 rounds per
// shard, still gets profiles: the sampling phase runs across windows.
func TestShardRecordersSampleModules(t *testing.T) {
	data := workload.Uniform(7, 8000, 3)
	profiled := func(every int, run func(x *Index)) (rounds, profiles int) {
		rec := obs.New()
		rec.SetModuleSampling(every)
		cfg := testConfig(4)
		cfg.Obs = rec
		run(New(cfg, data))
		for _, ev := range rec.Events() {
			if ev.Kind != obs.KindRound {
				continue
			}
			rounds++
			if ev.Profile != nil {
				profiles++
			}
		}
		return rounds, profiles
	}

	rounds, profiles := profiled(1, func(x *Index) {
		x.KNNBatch(data[:200], 8)
		x.SearchBatch(data[200:400])
	})
	if rounds == 0 || profiles != rounds {
		t.Fatalf("cadence 1: %d of %d merged rounds carry a profile, want all", profiles, rounds)
	}

	rounds, profiles = profiled(16, func(x *Index) {
		for i := 0; i < 64; i++ {
			x.SearchBatch(data[i : i+1])
		}
	})
	if profiles == 0 {
		t.Fatalf("cadence 16: no profile on %d merged rounds of one-point searches", rounds)
	}
}
