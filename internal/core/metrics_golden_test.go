package core

import (
	"fmt"
	"os"
	"runtime"
	"testing"

	"pimzdtree/internal/geom"
	"pimzdtree/internal/pim"
	"pimzdtree/internal/workload"
)

// This file pins the PIM-Model accounting and the observable results of the
// batch query engine across routing-layer refactors. The wave router is pure
// simulator infrastructure: it may change how groups are scattered to
// modules and how pulled chunks are scanned on the host, but it must not
// change a single modeled round, byte, or cycle, nor any query answer. The
// golden values below were captured on the pre-CSR (map-of-slices) router;
// the CSR router must reproduce them exactly.
//
// To re-capture after an *intentional* accounting change:
//
//	GOLDEN_PRINT=1 go test -run TestGoldenMetrics ./internal/core -v
//
// and paste the emitted table over the constants.

// goldenOutcome is everything one scenario run must reproduce.
type goldenOutcome struct {
	ResultHash uint64 // order-insensitive digest of all query answers
	Pulls      int64  // Stats().Pulls — proves the pulled-chunk path ran
	Rounds     int64
	BytesToPIM int64
	BytesFrom  int64
	CycleSum   int64
	CycleTotal int64
	CPUWork    int64
	CPUTraffic int64
	CPUChase   int64
}

// fnvStep folds one value into a running FNV-1a style hash.
func fnvStep(h, v uint64) uint64 {
	h ^= v
	h *= 1099511628211
	return h
}

func hashPoint(p geom.Point) uint64 {
	h := uint64(14695981039346656037)
	h = fnvStep(h, uint64(p.Dims))
	for d := uint8(0); d < p.Dims; d++ {
		h = fnvStep(h, uint64(p.Coords[d]))
	}
	return h
}

// hashPointSet digests a point slice insensitively to order: parallel host
// scans may legally collect per-query hits in any order.
func hashPointSet(pts []geom.Point) uint64 {
	var sum uint64
	for _, p := range pts {
		sum += hashPoint(p) // commutative
	}
	return fnvStep(uint64(len(pts))+1, sum)
}

// goldenScenario drives a fixed op mix — including hot batches that force
// the pulled-chunk (imbalanced) path — and digests answers + metrics.
func goldenScenario(t *testing.T, data []geom.Point, tuning Tuning) goldenOutcome {
	t.Helper()
	nBuild := len(data) - 1500
	tr := New(testConfig(tuning), data[:nBuild])

	h := uint64(14695981039346656037)

	queries := workload.QueryPoints(31, data[:nBuild], 2000)
	for _, r := range tr.Search(queries) {
		h = fnvStep(h, r.Terminal.Key)
		h = fnvStep(h, uint64(r.Terminal.PrefixLen))
		h = fnvStep(h, uint64(r.Terminal.Size))
	}

	// Hot batch: every query routes to the same chunk, so its group exceeds
	// the pull threshold and the host-side pull path runs.
	hot := make([]geom.Point, 2500)
	for i := range hot {
		hot[i] = data[7]
	}
	for _, r := range tr.Search(hot) {
		h = fnvStep(h, r.Terminal.Key)
	}

	tr.Insert(data[nBuild:])

	// kNN distances are unique as a multiset even when equal-distance ties
	// resolve differently, so digest dists only.
	for _, nb := range tr.KNN(queries[:300], 5) {
		for _, n := range nb {
			h = fnvStep(h, n.Dist)
		}
	}
	hotQ := make([]geom.Point, 600)
	for i := range hotQ {
		hotQ[i] = data[11]
	}
	for _, nb := range tr.KNN(hotQ, 3) {
		h = fnvStep(h, uint64(len(nb)))
		for _, n := range nb {
			h = fnvStep(h, n.Dist)
		}
	}

	boxes := workload.QueryBoxes(33, data[:nBuild], 200, 64)
	for _, c := range tr.BoxCount(boxes) {
		h = fnvStep(h, uint64(c))
	}
	for _, pts := range tr.BoxFetch(boxes[:80]) {
		h = fnvStep(h, hashPointSet(pts))
	}

	tr.Delete(data[:500])
	for _, r := range tr.Search(queries[:400]) {
		h = fnvStep(h, r.Terminal.Key)
		h = fnvStep(h, uint64(r.Terminal.Size))
	}

	m := tr.System().Metrics()
	return goldenOutcome{
		ResultHash: h,
		Pulls:      tr.Stats().Pulls,
		Rounds:     m.Rounds,
		BytesToPIM: m.BytesToPIM,
		BytesFrom:  m.BytesFromPIM,
		CycleSum:   m.PIMCycleSum,
		CycleTotal: m.PIMCycleTotal,
		CPUWork:    m.CPUWork,
		CPUTraffic: m.CPUTraffic,
		CPUChase:   m.CPUChase,
	}
}

// Captured on the pre-CSR map-of-slices router (seed commit); see the file
// comment for the re-capture procedure.
var (
	goldenUniform = goldenOutcome{
		ResultHash: 0x527a686a0dd21a06,
		Pulls:      1,
		Rounds:     25,
		BytesToPIM: 1167576,
		BytesFrom:  328608,
		CycleSum:   319942,
		CycleTotal: 1597309,
		CPUWork:    2600488,
		CPUTraffic: 4206320,
		CPUChase:   0,
	}
	goldenOSM = goldenOutcome{
		ResultHash: 0x9594dec4d65f5a5f,
		Pulls:      9,
		Rounds:     39,
		BytesToPIM: 4141088,
		BytesFrom:  264312,
		CycleSum:   45788,
		CycleTotal: 1267825,
		CPUWork:    3065768,
		CPUTraffic: 4361128,
		CPUChase:   0,
	}
)

var goldenCases = []struct {
	name   string
	data   func() []geom.Point
	tuning Tuning
	want   goldenOutcome
}{
	{
		name:   "uniform-throughput",
		data:   func() []geom.Point { return workload.Uniform(101, 41500, 3) },
		tuning: ThroughputOptimized,
		want:   goldenUniform,
	},
	{
		name:   "osm-skewed",
		data:   func() []geom.Point { return workload.OSMLike(102, 41500, 3) },
		tuning: SkewResistant,
		want:   goldenOSM,
	},
}

// TestGoldenMetrics is the pre/post-router differential gate: answers and
// all integer PIM-Model accounting must match the map-router baseline on a
// uniform and a skewed workload, with the pulled-chunk path exercised
// (Pulls > 0) in both.
func TestGoldenMetrics(t *testing.T) {
	printMode := os.Getenv("GOLDEN_PRINT") != ""
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			got := goldenScenario(t, tc.data(), tc.tuning)
			if printMode {
				fmt.Printf("%s: %#v\n", tc.name, got)
				return
			}
			if got.Pulls == 0 {
				t.Fatal("scenario never exercised the pulled-chunk path")
			}
			if got != tc.want {
				t.Errorf("outcome diverged from map-router baseline:\n got %+v\nwant %+v", got, tc.want)
			}
		})
	}
}

// --- Update-path golden (fork-join merge + parallel relayout gate) ---
//
// The batch update path (insertRec/deleteRec merge, relayout walks) may
// fork across goroutines, but every modeled metric, every node counter, and
// the final tree structure must be byte-identical to the serial walk at any
// GOMAXPROCS. The values below were captured on the serial (pre-fork-join)
// update path; re-capture with GOLDEN_PRINT=1 as described above.

// updateGoldenOutcome pins everything an update sequence must reproduce.
type updateGoldenOutcome struct {
	TreeHash   uint64 // order-sensitive digest of the full logical tree
	Points     int
	Syncs      int64 // Stats().CounterSyncs
	Promotions int64
	Demotions  int64
	Moved      int64
	Edited     int64
	MoveBytes  int64
	Rounds     int64
	BytesToPIM int64
	BytesFrom  int64
	CycleSum   int64
	CycleTotal int64
	CPUWork    int64
	CPUTraffic int64
}

// hashNode digests the whole subtree in a fixed in-order walk: structure,
// prefix metadata, the exact/lazy/drift counters of §3.4, layer assignment
// and leaf payloads. Any divergence introduced by a racy or reordered
// parallel merge shows up here.
func hashNode(h uint64, n *Node) uint64 {
	if n == nil {
		return fnvStep(h, 0xdead)
	}
	h = fnvStep(h, n.Key)
	h = fnvStep(h, uint64(n.PrefixLen))
	h = fnvStep(h, uint64(n.Size))
	h = fnvStep(h, uint64(n.SC))
	h = fnvStep(h, uint64(n.Size-n.SC)) // the lazy-counter drift
	h = fnvStep(h, uint64(n.Layer))
	if n.IsLeaf() {
		for i, k := range n.Keys {
			h = fnvStep(h, k)
			h = fnvStep(h, hashPoint(n.point(i)))
		}
		return h
	}
	h = hashNode(h, n.Left)
	return hashNode(h, n.Right)
}

// updateGoldenScenario drives interleaved Insert/Delete/relayout batches —
// large enough to engage the fork-join merge, with a hot-leaf flood that
// forces leaf splits and layer promotions — and digests the tree plus all
// accounting.
func updateGoldenScenario(t testing.TB, data []geom.Point, tuning Tuning) updateGoldenOutcome {
	t.Helper()
	nBuild := len(data) / 2
	tr := New(testConfig(tuning), data[:nBuild])
	rest := data[nBuild:]
	q := len(rest) / 4

	tr.Insert(rest[:2*q])
	tr.Delete(data[:q])
	tr.Insert(rest[2*q : 3*q])

	// Hot-leaf flood: thousands of copies of one stored point force a
	// same-key over-full leaf, then a split once distinct neighbors join,
	// and enough subtree growth to promote layers at the next relayout.
	hot := make([]geom.Point, 2200)
	for i := range hot {
		hot[i] = rest[0]
	}
	tr.Insert(hot)
	tr.Delete(hot[:1100])

	tr.Delete(data[q : 2*q])
	tr.Insert(rest[3*q:])

	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants after update sequence: %v", err)
	}
	if bad := tr.CheckCounterInvariant(); bad != nil {
		t.Fatalf("counter invariant violated at node key=%x", bad.Key)
	}

	s := tr.Stats()
	m := tr.System().Metrics()
	return updateGoldenOutcome{
		TreeHash:   hashNode(14695981039346656037, tr.root),
		Points:     tr.Size(),
		Syncs:      s.CounterSyncs,
		Promotions: s.Promotions,
		Demotions:  s.Demotions,
		Moved:      s.MovedChunks,
		Edited:     s.EditedChunks,
		MoveBytes:  s.MoveBytes,
		Rounds:     m.Rounds,
		BytesToPIM: m.BytesToPIM,
		BytesFrom:  m.BytesFromPIM,
		CycleSum:   m.PIMCycleSum,
		CycleTotal: m.PIMCycleTotal,
		CPUWork:    m.CPUWork,
		CPUTraffic: m.CPUTraffic,
	}
}

// Captured on the serial update path (pre-fork-join), GOMAXPROCS=1; see
// the re-capture procedure in the file comment.
var (
	updateGoldenUniform = updateGoldenOutcome{
		TreeHash:   0xff2d5db635369e19,
		Points:     31100,
		Syncs:      12311,
		Promotions: 32,
		Demotions:  0,
		Moved:      100,
		Edited:     653,
		MoveBytes:  511072,
		Rounds:     41,
		BytesToPIM: 1221544,
		BytesFrom:  244272,
		CycleSum:   70782,
		CycleTotal: 1037337,
		CPUWork:    3881780,
		CPUTraffic: 6149616,
	}
	updateGoldenOSM = updateGoldenOutcome{
		TreeHash:   0xcc40a21f3ce98b08,
		Points:     31100,
		Syncs:      15146,
		Promotions: 83,
		Demotions:  0,
		Moved:      2169,
		Edited:     9344,
		MoveBytes:  1302720,
		Rounds:     52,
		BytesToPIM: 5744248,
		BytesFrom:  434600,
		CycleSum:   68599,
		CycleTotal: 1389456,
		CPUWork:    4962343,
		CPUTraffic: 6405432,
	}
)

var updateGoldenCases = []struct {
	name   string
	data   func() []geom.Point
	tuning Tuning
	want   updateGoldenOutcome
}{
	{
		name:   "uniform-throughput",
		data:   func() []geom.Point { return workload.Uniform(201, 40000, 3) },
		tuning: ThroughputOptimized,
		want:   updateGoldenUniform,
	},
	{
		name:   "osm-skewed",
		data:   func() []geom.Point { return workload.OSMLike(202, 40000, 3) },
		tuning: SkewResistant,
		want:   updateGoldenOSM,
	},
}

// TestGoldenUpdateMetrics runs the update scenario at GOMAXPROCS 1, 4 and
// 16: the fork-join merge and the parallel relayout walks must reproduce
// the pinned serial accounting byte-for-byte at every parallelism level.
func TestGoldenUpdateMetrics(t *testing.T) {
	printMode := os.Getenv("GOLDEN_PRINT") != ""
	for _, tc := range updateGoldenCases {
		for _, procs := range []int{1, 4, 16} {
			t.Run(fmt.Sprintf("%s-procs%d", tc.name, procs), func(t *testing.T) {
				prev := runtime.GOMAXPROCS(procs)
				defer runtime.GOMAXPROCS(prev)
				got := updateGoldenScenario(t, tc.data(), tc.tuning)
				if printMode {
					fmt.Printf("%s (procs=%d): %#v\n", tc.name, procs, got)
					return
				}
				if got != tc.want {
					t.Errorf("update accounting diverged from serial baseline:\n got %+v\nwant %+v", got, tc.want)
				}
			})
		}
	}
}

// Keep pim.Metrics in scope for the doc comment above.
var _ = pim.Metrics{}
