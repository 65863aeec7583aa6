package serve

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pimzdtree/internal/core"
	"pimzdtree/internal/costmodel"
	"pimzdtree/internal/geom"
	"pimzdtree/internal/shard"
	"pimzdtree/internal/workload"
)

// historyOracle is the brute-force model of the served index: a multiset
// of stored points.
type historyOracle map[geom.Point]int

func (o historyOracle) size() int {
	n := 0
	for _, c := range o {
		n += c
	}
	return n
}

// knnDists is the exact kNN distance list: a stored multi-point is one
// neighbour, however many instances it has.
func (o historyOracle) knnDists(q geom.Point, k int) []uint64 {
	d := make([]uint64, 0, len(o))
	for p := range o {
		d = append(d, geom.DistL2Sq(p, q))
	}
	slices.Sort(d)
	return d[:min(k, len(d))]
}

func (o historyOracle) boxCount(b geom.Box) int64 {
	var n int64
	for p, c := range o {
		if b.Contains(p) {
			n += int64(c)
		}
	}
	return n
}

// checkPlan checks every answer of one executed plan against the oracle
// as it stood before the plan (before), under the documented epoch rules:
// reads observe the epoch the previous plan left, inserts publish before
// deletes, and a barrier completes at the epoch all of the plan's work
// left.
func checkPlan(before historyOracle, plan []*Request, epoch0, epoch1 uint64) error {
	var lastInsert, firstDelete uint64 = epoch0, epoch1
	for i, r := range plan {
		select {
		case <-r.Done():
		default:
			return fmt.Errorf("request %d (%s) not completed", i, r.Op)
		}
		if r.Resp.Err != nil {
			return fmt.Errorf("request %d (%s): %v", i, r.Op, r.Resp.Err)
		}
		switch r.Op {
		case OpSearch, OpKNN, OpBox:
			if r.Resp.Epoch != epoch0 {
				return fmt.Errorf("read %d (%s) observed epoch %d, want %d", i, r.Op, r.Resp.Epoch, epoch0)
			}
		case OpInsert, OpDelete:
			if r.Resp.Applied != len(r.Pts) || r.Resp.Epoch <= epoch0 || r.Resp.Epoch > epoch1 {
				return fmt.Errorf("%s %d: applied %d at epoch %d, want %d in (%d, %d]",
					r.Op, i, r.Resp.Applied, r.Resp.Epoch, len(r.Pts), epoch0, epoch1)
			}
			if r.Op == OpInsert {
				lastInsert = max(lastInsert, r.Resp.Epoch)
			} else {
				firstDelete = min(firstDelete, r.Resp.Epoch)
			}
		case opBarrier:
			if r.Resp.Epoch != epoch1 {
				return fmt.Errorf("barrier %d completed at epoch %d, want %d", i, r.Resp.Epoch, epoch1)
			}
		}
		switch r.Op {
		case OpSearch:
			for j, p := range r.Pts {
				if r.Resp.Found[j] != (before[p] > 0) {
					return fmt.Errorf("search %d: %v found=%v, oracle holds %d", i, p, r.Resp.Found[j], before[p])
				}
			}
		case OpKNN:
			for j, q := range r.Pts {
				got := r.Resp.Neighbors[j]
				want := before.knnDists(q, r.K)
				if len(got) != len(want) {
					return fmt.Errorf("knn %d (k=%d) of %v: %d neighbours, oracle %d", i, r.K, q, len(got), len(want))
				}
				for n, nb := range got {
					if nb.Dist != want[n] || before[nb.Point] == 0 || geom.DistL2Sq(nb.Point, q) != nb.Dist {
						return fmt.Errorf("knn %d (k=%d) of %v: neighbour %d is %v at %d, oracle distance %d, stored %d",
							i, r.K, q, n, nb.Point, nb.Dist, want[n], before[nb.Point])
					}
				}
			}
		case OpBox:
			for j, b := range r.Boxes {
				if want := before.boxCount(b); r.Resp.Counts[j] != want {
					return fmt.Errorf("box %d: count %d, oracle %d", i, r.Resp.Counts[j], want)
				}
			}
		}
	}
	if lastInsert > firstDelete {
		return fmt.Errorf("an insert published epoch %d after a delete published %d", lastInsert, firstDelete)
	}
	return nil
}

// TestEngineHistoryMatchesOracle drives the engine's executor plan by plan
// with requests drawn from two seeded streams (kNN at k = 3 and k = 8) and
// checks every answer against a brute-force multiset under the documented
// epoch semantics: over one core.Tree (CheckInvariants after every plan)
// and over a four-shard index that rebalances at every update batch. Plan
// sizes and barrier positions are cut by a seeded rule; the pools repeat
// stored points, so inserts build multi-points and deletes miss.
func TestEngineHistoryMatchesOracle(t *testing.T) {
	plans := 120
	if testing.Short() {
		plans = 30
	}
	m := costmodel.UPMEMServer()
	m.PIMModules = 32
	for _, tc := range []struct {
		name string
		// backend builds the index over initial; check (nil: none) runs
		// after every plan.
		backend func(initial []geom.Point) (b Backend, size func() int, check func() error)
	}{
		{"tree", func(initial []geom.Point) (Backend, func() int, func() error) {
			tr := core.New(core.Config{Dims: 3, Machine: m, Tuning: core.ThroughputOptimized}, initial)
			return NewTreeBackend(tr), tr.Size, tr.CheckInvariants
		}},
		{"shards4", func(initial []geom.Point) (Backend, func() int, func() error) {
			x := shard.New(shard.Config{Trees: 4, Dims: 3, Machine: m, Tuning: core.ThroughputOptimized,
				Rebalance: true, CheckEvery: 1, MinShardPoints: 1}, initial)
			return x, x.Size, nil
		}},
	} {
		for _, seed := range []int64{1, 2} {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				pool := workload.Uniform(seed, 1500, 3)
				boxes := workload.QueryBoxes(seed+1, pool, 64, 40)
				mix, err := ParseMix("search=30,insert=25,delete=20,knn=15,box=10")
				if err != nil {
					t.Fatal(err)
				}
				streams := []*Stream{
					NewTraffic(pool, boxes, mix, 3, 0).Stream(seed),
					NewTraffic(pool, boxes, mix, 8, 0).Stream(seed + 1),
				}
				initial := pool[:1000]
				b, size, check := tc.backend(initial)
				e := newEngine(Config{Backend: b, MaxBatch: 16})
				oracle := historyOracle{}
				for _, p := range initial {
					oracle[p]++
				}

				cut := rand.New(rand.NewSource(seed * 7))
				for i := 0; i < plans; i++ {
					plan := make([]*Request, 1+cut.Intn(48))
					for j := range plan {
						plan[j] = streams[cut.Intn(len(streams))].Next()
					}
					if cut.Intn(4) == 0 {
						plan = slices.Insert(plan, cut.Intn(len(plan)+1), NewRequest(opBarrier))
					}
					epoch0 := b.Epoch()
					e.runCut(plan)
					if err := checkPlan(oracle, plan, epoch0, b.Epoch()); err != nil {
						t.Fatalf("plan %d (%d requests): %v", i, len(plan), err)
					}
					for _, r := range plan {
						if r.Op == OpInsert {
							oracle[r.Pts[0]]++
						}
					}
					for _, r := range plan {
						if p := r.Pts; r.Op == OpDelete && oracle[p[0]] > 0 {
							if oracle[p[0]]--; oracle[p[0]] == 0 {
								delete(oracle, p[0])
							}
						}
					}
					if got, want := size(), oracle.size(); got != want {
						t.Fatalf("plan %d: index holds %d points, oracle %d", i, got, want)
					}
					if check != nil {
						if err := check(); err != nil {
							t.Fatalf("plan %d: %v", i, err)
						}
					}
				}
				if v := e.FenceViolations(); v != 0 {
					t.Fatalf("%d fence violations", v)
				}
				if x, ok := b.(*shard.Index); ok && x.Rebalances() == 0 {
					t.Fatal("the four-shard index never repartitioned")
				}
			})
		}
	}
}
