package naive

import (
	"math/rand"
	"testing"

	"pimzdtree/internal/costmodel"
	"pimzdtree/internal/geom"
	"pimzdtree/internal/morton"
)

func machine(p int) costmodel.Machine {
	m := costmodel.UPMEMServer()
	m.PIMModules = p
	return m
}

func randPoints(rng *rand.Rand, n int, limit uint32) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.P3(rng.Uint32()%limit, rng.Uint32()%limit, rng.Uint32()%limit)
	}
	return pts
}

func TestPlacementString(t *testing.T) {
	if RangePartitioned.String() != "range-partitioned" || NodeHashed.String() != "node-hashed" {
		t.Fatal("names")
	}
}

// found reports whether the search ended at a leaf containing key.
func found(r SearchResult, key uint64) bool {
	if r.Terminal == nil || !r.Terminal.isLeaf() {
		return false
	}
	for _, k := range r.Terminal.keys {
		if k == key {
			return true
		}
	}
	return false
}

func TestSearchFindsStoredPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := randPoints(rng, 20000, 1<<20)
	for _, placement := range []Placement{RangePartitioned, NodeHashed} {
		tr := New(Config{Dims: 3, Machine: machine(64), Placement: placement}, pts)
		if tr.Size() != len(pts) {
			t.Fatalf("%v: size %d", placement, tr.Size())
		}
		res := tr.Search(pts[:300])
		for i, r := range res {
			if !found(r, morton.EncodePoint(pts[i])) {
				t.Fatalf("%v: query %d not found", placement, i)
			}
		}
	}
}

func TestSearchMissesAbsentPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := randPoints(rng, 5000, 1<<10) // confined corner of the space
	tr := New(Config{Dims: 3, Machine: machine(32), Placement: NodeHashed}, pts)
	probe := geom.P3(1<<20, 1<<20, 1<<20)
	res := tr.Search([]geom.Point{probe})
	if found(res[0], morton.EncodePoint(probe)) {
		t.Fatal("phantom point found")
	}
}

func TestEmptyTree(t *testing.T) {
	tr := New(Config{Dims: 3, Machine: machine(8), Placement: RangePartitioned}, nil)
	res := tr.Search([]geom.Point{geom.P3(1, 2, 3)})
	if res[0].Terminal != nil {
		t.Fatal("empty tree search")
	}
}

// TestHashedPaysPerLevelRounds verifies §3's argument against the
// master-node-only design: communication rounds scale with tree depth.
func TestHashedPaysPerLevelRounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := randPoints(rng, 30000, 1<<20)
	hashed := New(Config{Dims: 3, Machine: machine(64), Placement: NodeHashed}, pts)
	ranged := New(Config{Dims: 3, Machine: machine(64), Placement: RangePartitioned}, pts)

	qs := randPoints(rng, 2000, 1<<20)
	hashed.System().ResetMetrics()
	hashed.Search(qs)
	hRounds := hashed.System().Metrics().Rounds

	ranged.System().ResetMetrics()
	ranged.Search(qs)
	rRounds := ranged.System().Metrics().Rounds

	if rRounds != 1 {
		t.Fatalf("range-partitioned search took %d rounds, want 1", rRounds)
	}
	if hRounds < 8 {
		t.Fatalf("node-hashed search took only %d rounds; expected ~tree depth", hRounds)
	}
}

// TestRangePartitionedCollapsesUnderSkew verifies the other half of §3:
// a skewed batch drives all work to one module, so the slowest-module
// cycles (PIM time) approach the whole batch's work.
func TestRangePartitionedCollapsesUnderSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts := randPoints(rng, 30000, 1<<20)
	ranged := New(Config{Dims: 3, Machine: machine(64), Placement: RangePartitioned}, pts)

	uniform := randPoints(rng, 4000, 1<<20)
	hot := pts[7]
	skewed := make([]geom.Point, 4000)
	for i := range skewed {
		skewed[i] = hot
	}

	ranged.System().ResetMetrics()
	ranged.Search(uniform)
	uniformMax := ranged.System().Metrics().PIMCycleSum

	ranged.System().ResetMetrics()
	ranged.Search(skewed)
	skewMax := ranged.System().Metrics().PIMCycleSum

	if skewMax < 5*uniformMax {
		t.Fatalf("skewed batch max-module cycles %d not >> uniform %d", skewMax, uniformMax)
	}
}

// TestHashedBalancedUnderSkew: the hashing strawman's one redeeming
// property — adversarial batches cannot overload a single module beyond
// the per-level group sizes.
func TestHashedBalancedUnderSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := randPoints(rng, 30000, 1<<20)
	hashed := New(Config{Dims: 3, Machine: machine(64), Placement: NodeHashed}, pts)
	hot := pts[7]
	skewed := make([]geom.Point, 4000)
	for i := range skewed {
		skewed[i] = hot
	}
	hashed.System().ResetMetrics()
	hashed.Search(skewed)
	m := hashed.System().Metrics()
	// All queries walk the same path, so each round touches one module
	// with the whole batch: per-round max cycles stay ~4 per query, and
	// total rounds ~depth. The pathology here is communication volume,
	// not compute imbalance.
	if m.ChannelBytes() < int64(len(skewed))*8*8 {
		t.Fatalf("expected per-level messages, got %d channel bytes", m.ChannelBytes())
	}
}

func TestSpaceAccounted(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pts := randPoints(rng, 10000, 1<<20)
	for _, placement := range []Placement{RangePartitioned, NodeHashed} {
		tr := New(Config{Dims: 3, Machine: machine(32), Placement: placement}, pts)
		total, max := tr.System().StoredBytesTotal()
		if total < int64(len(pts))*pointBytes {
			t.Fatalf("%v: stored %d below payload", placement, total)
		}
		if max <= 0 {
			t.Fatalf("%v: no per-module footprint", placement)
		}
	}
}

func TestRangePlacementSpreadsSubtrees(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := randPoints(rng, 20000, 1<<20)
	tr := New(Config{Dims: 3, Machine: machine(16), Placement: RangePartitioned}, pts)
	modules := map[int]bool{}
	var walk func(n *node)
	walk = func(n *node) {
		if n == nil {
			return
		}
		if n.module >= 0 {
			modules[n.module] = true
		}
		walk(n.left)
		walk(n.right)
	}
	walk(tr.root)
	if len(modules) < 12 {
		t.Fatalf("subtrees on only %d of 16 modules", len(modules))
	}
}
