package shard

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"pimzdtree/internal/core"
	"pimzdtree/internal/workload"
)

// TestConcurrentSnapshotsDuringMigration: the admin surfaces (Stats,
// TreeStats, ModuleLoads, Imbalance, Metrics, Epoch) must be safe to read from any
// goroutine while update batches run and the rebalancer migrates points
// between shards — the invariant `make race` guards for the serving
// pipeline, where scrapes land mid-batch.
func TestConcurrentSnapshotsDuringMigration(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	data := randPoints(rng, 6000, 3, 1<<16)
	cfg := testConfig(4)
	cfg.LoadStats = true
	cfg.Rebalance = true
	cfg.CheckEvery = 1
	cfg.MinShardPoints = 16
	x := New(cfg, data)

	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var lastEpoch uint64
			for !stop.Load() {
				switch r % 4 {
				case 0:
					st := x.Stats()
					if st.Shards != 4 {
						t.Errorf("snapshot shards %d", st.Shards)
						return
					}
					// Every update batch bumps the epoch under the write
					// lock, so an unchanged epoch around both reads means
					// they saw the same index.
					e := x.Epoch()
					ts, n := x.TreeStats(), x.Size()
					if len(ts) != 4 {
						t.Errorf("tree stats for %d shards, want 4", len(ts))
						return
					}
					if sum := treePoints(ts); x.Epoch() == e && sum != n {
						t.Errorf("tree stats hold %d points, Size %d", sum, n)
						return
					}
				case 1:
					c, b := x.ModuleLoads()
					if len(c) != len(b) {
						t.Errorf("module loads %d vs %d", len(c), len(b))
						return
					}
				case 2:
					_ = x.Imbalance()
					_ = x.Metrics()
				case 3:
					e := x.Epoch()
					if e < lastEpoch {
						t.Errorf("epoch went backwards: %d < %d", e, lastEpoch)
						return
					}
					lastEpoch = e
				}
			}
		}(r)
	}

	// One writer, batches externally serialized per the Backend contract:
	// hot searches skew shard 0's load window, small updates cross epoch
	// boundaries and trigger migrations under the readers.
	queries := workload.QueryPoints(8, data, 512)
	for round := 0; round < 12; round++ {
		x.SearchBatch(randPoints(rng, 800, 3, 1<<13))
		x.InsertBatch(randPoints(rng, 64, 3, 1<<16))
		x.KNNBatch(queries[:32], 5)
		x.DeleteBatch(data[round*16 : round*16+16])
	}
	stop.Store(true)
	wg.Wait()
	if x.Epoch() != 24 {
		t.Fatalf("epoch %d, want 24", x.Epoch())
	}
	if ts := x.TreeStats(); len(ts) != 4 || treePoints(ts) != x.Size() {
		t.Fatalf("tree stats %d shards holding %d points, want 4 holding %d", len(ts), treePoints(ts), x.Size())
	}
}

func treePoints(ts []core.Stats) int {
	n := 0
	for _, s := range ts {
		n += s.Points
	}
	return n
}
