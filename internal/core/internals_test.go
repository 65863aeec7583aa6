package core

import (
	"math"
	"math/rand"
	"testing"

	"pimzdtree/internal/geom"
	"pimzdtree/internal/obs"
)

// Unit tests for the internal mechanisms: lazy-counter windows, pull
// thresholds, host batch spill pricing, and practical chunk modes.

func TestDeltaWindowPerLayer(t *testing.T) {
	tr := New(testConfig(SkewResistant), randPoints(rand.New(rand.NewSource(1)), 30000, 3, 1<<20))
	theta0, theta1, _ := tr.Thresholds()

	// L0 node: window scales with ThetaL0 (capped by the Lemma 3.1 guard).
	l0 := &Node{Layer: L0, Size: 4 * theta0}
	lo, hi := tr.deltaWindow(l0)
	if hi != theta0 {
		t.Fatalf("L0 hi = %d, want %d", hi, theta0)
	}
	if lo != -(theta0 / 2) {
		t.Fatalf("L0 lo = %d, want %d", lo, -(theta0 / 2))
	}

	// The guard tightens windows for small nodes: -T <= Delta <= T/2.
	small := &Node{Layer: L0, Size: 10}
	lo, hi = tr.deltaWindow(small)
	if hi > small.Size/2 {
		t.Fatalf("guard violated: hi = %d for size %d", hi, small.Size)
	}
	if lo < -(small.Size / 2) {
		t.Fatalf("guard violated: lo = %d for size %d", lo, small.Size)
	}

	// L2 nodes always sync (no replicas to pay for).
	l2 := &Node{Layer: L2, Size: 100}
	lo, hi = tr.deltaWindow(l2)
	if lo != 0 || hi != 0 {
		t.Fatalf("L2 window = (%d, %d), want (0, 0)", lo, hi)
	}

	// L1 window bounded by ThetaL1.
	l1 := &Node{Layer: L1, Size: 4 * theta1}
	_, hi = tr.deltaWindow(l1)
	if hi > theta1 {
		t.Fatalf("L1 hi = %d exceeds theta1 %d", hi, theta1)
	}
}

func TestPullThresholds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// Throughput-optimized: K = B log_P(theta0/theta1) with B = theta0.
	to := New(testConfig(ThroughputOptimized), randPoints(rng, 30000, 3, 1<<20))
	theta0, _, _ := to.Thresholds()
	if k := to.pullThresholdL1(); int64(k) < theta0 {
		t.Fatalf("throughput-optimized K = %d should be >= B = %d", k, theta0)
	}
	// Skew-resistant: small B gives a small K, so hot chunks pull early.
	sr := New(testConfig(SkewResistant), randPoints(rng, 30000, 3, 1<<20))
	if k := sr.pullThresholdL1(); k < 1 || k > 200 {
		t.Fatalf("skew-resistant K = %d out of the expected small range", k)
	}
}

func TestHostBatchTrafficSpill(t *testing.T) {
	cfg := testConfig(ThroughputOptimized)
	cfg.CacheBudget = 96 * 1000 // fits 1000-op batches exactly
	tr := New(cfg, nil)
	if got := tr.hostBatchTraffic(500, 6); got != 500*96 {
		t.Fatalf("resident batch traffic = %d, want one pass", got)
	}
	if got := tr.hostBatchTraffic(2000, 6); got != 2000*96*6 {
		t.Fatalf("spilled batch traffic = %d, want all passes", got)
	}
}

func TestChunkModesSparseAndDense(t *testing.T) {
	// Skew-resistant chunking (B = 16): chunks with >= 4 nodes are dense,
	// smaller ones sparse. Both must appear on a real tree.
	rng := rand.New(rand.NewSource(3))
	tr := New(testConfig(SkewResistant), randPoints(rng, 50000, 3, 1<<20))
	var dense, sparse int
	for _, c := range tr.chunks {
		if c.Dense {
			dense++
			if int64(c.NodeCount) < tr.chunkB/4 {
				t.Fatalf("dense chunk with %d nodes (B=%d)", c.NodeCount, tr.chunkB)
			}
		} else {
			sparse++
			if int64(c.NodeCount) >= tr.chunkB/4 {
				t.Fatalf("sparse chunk with %d nodes (B=%d)", c.NodeCount, tr.chunkB)
			}
		}
	}
	if dense == 0 || sparse == 0 {
		t.Fatalf("expected both modes: dense=%d sparse=%d", dense, sparse)
	}
}

func TestChunkTreeStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tr := New(testConfig(SkewResistant), randPoints(rng, 50000, 3, 1<<20))
	for _, c := range tr.chunks {
		// Chunk roots carry their chunk; parents link consistently.
		if c.Root.Chunk != c {
			t.Fatal("chunk root not assigned to its chunk")
		}
		for _, ch := range c.Children {
			if ch.Parent != c {
				t.Fatal("child chunk's parent link broken")
			}
			if ch.Depth != c.Depth+1 {
				t.Fatalf("child depth %d, parent %d", ch.Depth, c.Depth)
			}
		}
		// Chunk bytes include at least its nodes.
		if c.Bytes < int64(c.NodeCount)*nodeBytes {
			t.Fatalf("chunk bytes %d below node footprint", c.Bytes)
		}
	}
}

func TestChunkingRespectsSizeRule(t *testing.T) {
	// §3.2: within a chunk, every non-root member has SC > SC(root)/B.
	rng := rand.New(rand.NewSource(5))
	tr := New(testConfig(SkewResistant), randPoints(rng, 40000, 3, 1<<20))
	for _, c := range tr.chunks {
		threshold := c.Root.SC / tr.chunkB
		var walk func(n *Node)
		walk = func(n *Node) {
			if n != c.Root && n.SC <= threshold {
				t.Fatalf("chunk member SC %d <= root SC/B = %d", n.SC, threshold)
			}
			if n.IsLeaf() {
				return
			}
			for _, ch := range []*Node{n.Left, n.Right} {
				if ch.Chunk == c {
					walk(ch)
				}
			}
		}
		walk(c.Root)
	}
}

func TestModuleOfCPUResidentL0(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	tr := New(testConfig(ThroughputOptimized), randPoints(rng, 30000, 3, 1<<20))
	if tr.l0OnModules {
		t.Skip("L0 unexpectedly on modules")
	}
	if got := tr.moduleOf(tr.root); got != -1 {
		t.Fatalf("CPU-resident L0 root moduleOf = %d, want -1", got)
	}
}

func TestBallInBox(t *testing.T) {
	box := geom.NewBox(geom.P2(10, 10), geom.P2(20, 20))
	if !ballInBox(geom.P2(15, 15), 5, box) {
		t.Fatal("centered ball should fit")
	}
	if ballInBox(geom.P2(15, 15), 6, box) {
		t.Fatal("oversized ball should not fit")
	}
	if ballInBox(geom.P2(11, 15), 5, box) {
		t.Fatal("off-center ball should not fit")
	}
	// Radius 0 fits anywhere inside.
	if !ballInBox(geom.P2(10, 10), 0, box) {
		t.Fatal("zero ball at corner should fit")
	}
}

func TestCandState(t *testing.T) {
	cs := &candState{bound: math.MaxUint64}
	cs.add(geom.P2(1, 1), 10, 3)
	cs.add(geom.P2(2, 2), 5, 3)
	cs.add(geom.P2(3, 3), 20, 3)
	if cs.bound != 20 {
		t.Fatalf("bound = %d, want 20 once full", cs.bound)
	}
	// Better candidate evicts the worst and tightens the bound.
	cs.add(geom.P2(4, 4), 1, 3)
	if cs.bound != 10 {
		t.Fatalf("bound = %d, want 10", cs.bound)
	}
	if len(cs.best) != 3 || cs.best[0].Dist != 1 {
		t.Fatalf("best = %+v", cs.best)
	}
	// Worse-than-bound candidates are ignored.
	cs.add(geom.P2(5, 5), 99, 3)
	if len(cs.best) != 3 || cs.bound != 10 {
		t.Fatal("ignored candidate changed state")
	}
}

func TestRebuildPreservesContentAndStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := randPoints(rng, 20000, 3, 1<<20)
	tr := New(testConfig(SkewResistant), pts)
	tr.Insert(randPoints(rng, 5000, 3, 1<<20))
	before := tr.Points()

	tr.System().ResetMetrics()
	tr.Rebuild()
	m := tr.System().Metrics()
	if m.ChannelBytes() == 0 || m.Rounds == 0 {
		t.Fatal("rebuild should cost rounds and traffic")
	}

	after := tr.Points()
	if len(before) != len(after) {
		t.Fatalf("sizes %d vs %d", len(before), len(after))
	}
	for i := range before {
		if !before[i].Equal(after[i]) {
			t.Fatalf("point %d changed", i)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if bad := tr.CheckCounterInvariant(); bad != nil {
		t.Fatal("Lemma 3.1 violated after rebuild")
	}
	// Queries still exact.
	qs := randPoints(rng, 20, 3, 1<<20)
	got := tr.KNN(qs, 5)
	for i, q := range qs {
		want := bruteKNN(after, q, 5)
		for j := range want {
			if got[i][j].Dist != want[j].Dist {
				t.Fatalf("kNN mismatch after rebuild q=%d", i)
			}
		}
	}
}

func TestRebuildEmptyTree(t *testing.T) {
	tr := New(testConfig(ThroughputOptimized), nil)
	tr.Rebuild() // no-op, no panic
	if tr.Size() != 0 {
		t.Fatal("empty rebuild")
	}
}

// TestLoadBalanceWithLargeBatches verifies the Lemma 5.2 consequence: with
// batches of Omega(P log P), the pushed search round is load-balanced whp —
// the slowest module does no more than a small multiple of the mean work.
func TestLoadBalanceWithLargeBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	cfg := testConfig(ThroughputOptimized) // P = 64
	tr := New(cfg, randPoints(rng, 60000, 3, 1<<20))
	p := tr.P()
	// Batch >= P log P * small constant.
	batch := randPoints(rng, 16*p*6, 3, 1<<20)

	rec := obs.New() // retains every event
	tr.System().SetRecorder(rec)
	tr.Search(batch)
	// Find the main push round (the one touching the most modules with
	// real work).
	var push obs.RoundInfo
	rounds := 0
	for _, e := range rec.Events() {
		if e.Kind != obs.KindRound {
			continue
		}
		rounds++
		if e.Round.TotalCycles > push.TotalCycles {
			push = *e.Round
		}
	}
	if rounds == 0 {
		t.Fatal("no rounds recorded")
	}
	if push.ActiveModules < p/2 {
		t.Fatalf("push round touched only %d of %d modules", push.ActiveModules, p)
	}
	mean := float64(push.TotalCycles) / float64(push.ActiveModules)
	if float64(push.MaxCycles) > 6*mean {
		t.Fatalf("imbalanced push round: max %d vs mean %.1f", push.MaxCycles, mean)
	}
}

// TestSpaceBalanceUnderRegionalGrowth: sustained inserts into one small
// region must not pile that region's chunks onto one module — overloaded
// modules shed newly split chunks to their hash targets (a charged move).
func TestSpaceBalanceUnderRegionalGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tr := New(testConfig(SkewResistant), randPoints(rng, 50000, 3, 1<<21))
	for round := 0; round < 20; round++ {
		batch := make([]geom.Point, 5000)
		for i := range batch {
			batch[i] = geom.P3(1000+rng.Uint32()%4096, 2000+rng.Uint32()%4096, 3000+rng.Uint32()%4096)
		}
		tr.Insert(batch)
	}
	st := tr.Stats()
	avg := float64(st.StoredTotal) / float64(tr.P())
	if ratio := float64(st.StoredMax) / avg; ratio > 2.8 {
		t.Fatalf("module space imbalance %.2f after regional growth", ratio)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
