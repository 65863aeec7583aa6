package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"pimzdtree/internal/geom"
	"pimzdtree/internal/obs"
	"pimzdtree/internal/pim"
	"pimzdtree/internal/workload"
)

// TestPulledScanMultiWorker drives the pulled-chunk host path with several
// workers: a seeded skewed batch (many duplicate queries on a few hot keys)
// pushes dozens of chunk groups over the SkewResistant pull threshold
// (B = 16), so the pulled groups' host walks genuinely fork (search's
// lockstep descents, and kNN's and box's wave scans, which take pulled
// groups in the same loop as pushed ones). Under `make race` (GOMAXPROCS=4
// -race) this is the regression net for data races in the concurrent group
// traversals and their per-group cost and exit slots.
func TestPulledScanMultiWorker(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	rng := rand.New(rand.NewSource(17))
	data := randPoints(rng, 40_000, 3, 1<<20)
	tr := New(testConfig(SkewResistant), data)

	// 64 hot keys x 250 copies each.
	hot := make([]geom.Point, 0, 64*250)
	for i := 0; i < 64; i++ {
		p := data[i*37]
		for j := 0; j < 250; j++ {
			hot = append(hot, p)
		}
	}

	before := tr.Stats().Pulls
	res := tr.Search(hot)
	if tr.Stats().Pulls == before {
		t.Fatal("skewed batch did not exercise the pulled-chunk path")
	}
	for i := 0; i < len(hot); i += 97 {
		r := res[i]
		if r.Terminal == nil || !r.Terminal.IsLeaf() {
			t.Fatalf("query %d: stored point did not terminate at a leaf", i)
		}
		found := false
		for _, p := range r.Terminal.Pts {
			if p.Equal(hot[i]) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("query %d: terminal leaf does not hold the query point", i)
		}
	}

	// kNN and box waves share runPushPullWaves; drive their pulled paths
	// with the same skew.
	nbrs := tr.KNN(hot[:2000], 4)
	for i, ns := range nbrs {
		if len(ns) != 4 {
			t.Fatalf("kNN query %d: got %d neighbors, want 4", i, len(ns))
		}
		if ns[0].Dist != 0 {
			t.Fatalf("kNN query %d: nearest distance %d, want 0 (query is stored)", i, ns[0].Dist)
		}
	}
	boxes := make([]geom.Box, 64*8)
	for i := range boxes {
		c := data[(i%64)*37]
		lo := geom.P3(c.Coords[0]-(c.Coords[0]&0xffff), c.Coords[1]-(c.Coords[1]&0xffff), c.Coords[2]-(c.Coords[2]&0xffff))
		boxes[i] = geom.NewBox(lo, geom.P3(lo.Coords[0]+1<<16, lo.Coords[1]+1<<16, lo.Coords[2]+1<<16))
	}
	counts := tr.BoxCount(boxes)
	for i, c := range counts {
		if c <= 0 {
			t.Fatalf("box %d around a stored point counted %d points", i, c)
		}
	}
}

// pushedRoundOutcome is everything one run of the query panel produces
// that must not depend on how rounds were scheduled.
type pushedRoundOutcome struct {
	terminals []uint64 // per search: terminal key, prefix length, leaf flag
	nbrs      [][]Neighbor
	counts    []int64
	fetched   []uint64 // per box: point count, then an order-sensitive digest of the fetched list
	metrics   pim.Metrics
	chrome    []byte
	jsonl     []byte
}

// TestPushedRoundMultiWorker drives waves whose group scans really run on
// several host workers (a wave forks its scan from waveForkMin = 1024
// entries up; every batch below is 1.5-3x that, and a fifth of each falls on
// one hot spot so modules are unevenly loaded and the SkewResistant run
// pulls too), together with the per-query host loops around them. Answers,
// the modeled metrics down to the float seconds, and both trace exports
// must be the same at GOMAXPROCS 1, 2 and 4. Under `make race` this is the
// regression net for data races between concurrent group scans and in the
// per-worker scratch.
func TestPushedRoundMultiWorker(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	data := workload.OSMLike(23, 20_000, 3)
	rng := rand.New(rand.NewSource(29))
	draw := func(n int) []geom.Point {
		out := make([]geom.Point, n)
		for i := range out {
			if i%5 == 0 {
				out[i] = data[rng.Intn(64)] // hot spot
			} else {
				out[i] = data[rng.Intn(len(data))]
			}
		}
		return out
	}
	nudge := func(pts []geom.Point) []geom.Point {
		for i := range pts {
			pts[i].Coords[i%3] ^= uint32(rng.Intn(1 << 10))
		}
		return pts
	}
	searches := append(draw(1536), nudge(draw(1536))...)
	knnQ := nudge(draw(1536))
	boxes := make([]geom.Box, 1536)
	for i, c := range draw(len(boxes)) {
		const half = 1 << 12
		lo := geom.P3(c.Coords[0]-min(c.Coords[0], half), c.Coords[1]-min(c.Coords[1], half), c.Coords[2]-min(c.Coords[2], half))
		boxes[i] = geom.NewBox(lo, geom.P3(c.Coords[0]+half, c.Coords[1]+half, c.Coords[2]+half))
	}

	run := func(tuning Tuning, procs int) pushedRoundOutcome {
		runtime.GOMAXPROCS(procs)
		rec := obs.New()
		cfg := testConfig(tuning)
		cfg.Obs = rec
		tr := New(cfg, data)
		var o pushedRoundOutcome
		for _, r := range tr.Search(searches) {
			leaf := uint64(0)
			if r.Terminal.IsLeaf() {
				leaf = 1
			}
			o.terminals = append(o.terminals, r.Terminal.Key, uint64(r.Terminal.PrefixLen), leaf)
		}
		o.nbrs = tr.KNN(knnQ, 8)
		o.counts = tr.BoxCount(boxes)
		for _, pts := range tr.BoxFetch(boxes) {
			h := uint64(len(pts))
			for _, p := range pts {
				h = fnvStep(h, hashPoint(p))
			}
			o.fetched = append(o.fetched, uint64(len(pts)), h)
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

	for _, tuning := range []Tuning{ThroughputOptimized, SkewResistant} {
		want := run(tuning, 1)
		for i, c := range want.counts {
			if c <= 0 || want.fetched[2*i] != uint64(c) {
				t.Fatalf("%v: box %d counted %d points, fetched %d", tuning, i, c, want.fetched[2*i])
			}
		}
		for _, procs := range []int{2, 4} {
			got := run(tuning, procs)
			switch {
			case !reflect.DeepEqual(got.terminals, want.terminals):
				t.Errorf("%v GOMAXPROCS=%d: search terminals differ", tuning, procs)
			case !reflect.DeepEqual(got.nbrs, want.nbrs):
				t.Errorf("%v GOMAXPROCS=%d: kNN answers differ", tuning, procs)
			case !reflect.DeepEqual(got.counts, want.counts):
				t.Errorf("%v GOMAXPROCS=%d: box counts differ", tuning, procs)
			case !reflect.DeepEqual(got.fetched, want.fetched):
				t.Errorf("%v GOMAXPROCS=%d: fetched points (or their order) differ", tuning, procs)
			case got.metrics != want.metrics:
				t.Errorf("%v GOMAXPROCS=%d: metrics\n got %+v\nwant %+v", tuning, procs, got.metrics, want.metrics)
			case !bytes.Equal(got.chrome, want.chrome):
				t.Errorf("%v GOMAXPROCS=%d: Chrome trace export differs", tuning, procs)
			case !bytes.Equal(got.jsonl, want.jsonl):
				t.Errorf("%v GOMAXPROCS=%d: JSONL trace export differs", tuning, procs)
			}
		}
	}
}
