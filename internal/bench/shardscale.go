package bench

import (
	"fmt"
	"io"
	"math/rand"

	"pimzdtree/internal/core"
	"pimzdtree/internal/geom"
	"pimzdtree/internal/morton"
	"pimzdtree/internal/shard"
	"pimzdtree/internal/workload"
)

// Morton-prefix shard scale-out panel: the multi-tree index of
// internal/shard under three regimes.
//
//	scale_s — S in {1,2,4,8} independent racks over the same uniform
//	          warmup; throughput of a mixed search+kNN batch in modeled
//	          parallel-rack time (slowest shard plus the router, since
//	          shards execute fork-join). Headline: S=8 over S=1.
//	scale_n — fixed S=4, dataset grown 10x; channel bytes per routed
//	          search stay flat (the router's per-point charge and each
//	          shard's per-query traffic are both size-independent —
//	          the paper's Fig. 8 claim, carried across the router).
//	storm   — traffic concentrated on shard 0's key range with the
//	          rebalancer armed; reports the load imbalance before and
//	          after the epoch-boundary repartition migrates the hot
//	          range across shards.
//
// Throughput here is modeled, so the CSV is byte-identical at any
// GOMAXPROCS like the figure panels' (same test, same CI step), and the
// claims table in claims_test.go asserts the three headlines. The sweep is
// deliberately NOT part of `-experiment all`: the sharded index is an
// extension beyond the paper's single-rack evaluation.

// ShardScaleRow is one measurement of the shard scale-out sweep.
type ShardScaleRow struct {
	Section           string  // scale_s, scale_n, storm
	S                 int     // shard count
	N                 int     // warmup points
	ThroughputMOps    float64 // M queries/s in modeled parallel-rack time (0 for storm)
	CommBytesPerQuery float64 // channel bytes per executed query (0 for storm)
	ImbalanceBefore   float64 // storm only: window imbalance before rebalance
	ImbalanceAfter    float64 // storm only: window imbalance after rebalance
}

// shardScaleTrees is the scale_s shard-count sweep.
var shardScaleTrees = []int{1, 2, 4, 8}

// newShardIndex builds a warmed sharded index on the scaled machine; each
// shard owns its own rack of p.P modules.
func newShardIndex(p Params, s int, data []geom.Point, rebalance bool) *shard.Index {
	cfg := shard.Config{
		Trees:   s,
		Dims:    p.Dims,
		Machine: scaledPIMMachine(p, false),
		Tuning:  core.ThroughputOptimized,
	}
	if rebalance {
		cfg.LoadStats = true
		cfg.Rebalance = true
		cfg.CheckEvery = 1
		cfg.MinShardPoints = 16
	}
	x := shard.New(cfg, data)
	x.ResetMetrics()
	return x
}

// shardParallelCost runs fn and returns the modeled parallel-rack seconds
// (slowest shard's delta plus the router's) and the channel bytes charged.
// The aggregate Metrics() serializes shard time (it sums racks), so the
// scale-out panel re-derives the fork-join wall: max over per-shard deltas
// plus whatever the router added on top of the shard sum.
func shardParallelCost(x *shard.Index, fn func()) (seconds float64, commBytes int64) {
	shBefore := x.ShardMetrics()
	totBefore := x.Metrics()
	fn()
	shAfter := x.ShardMetrics()
	totAfter := x.Metrics()
	var slowest, serial float64
	for i := range shBefore {
		d := shAfter[i].Sub(shBefore[i]).TotalSeconds()
		serial += d
		if d > slowest {
			slowest = d
		}
	}
	tot := totAfter.Sub(totBefore)
	router := tot.TotalSeconds() - serial
	if router < 0 {
		router = 0
	}
	return slowest + router, tot.ChannelBytes()
}

// shardScaleBatch runs the mixed measurement batch: a full search batch
// plus a kNN batch at 1/8 scale (exercising the cross-shard top-k merge).
// Returns the executed query count.
func shardScaleBatch(x *shard.Index, qs []geom.Point) int {
	x.SearchBatch(qs)
	kq := qs[:len(qs)/8]
	x.KNNBatch(kq, 8)
	return len(qs) + len(kq)
}

// ShardScale runs the three-section shard scale-out sweep.
func ShardScale(p Params) []ShardScaleRow {
	p.fill()
	var rows []ShardScaleRow

	// scale_s: same data, same queries, S grows.
	data := workload.Uniform(p.Seed, p.WarmupN, p.Dims)
	qs := workload.QueryPoints(p.Seed+1, data, p.BatchOps)
	for _, s := range shardScaleTrees {
		x := newShardIndex(p, s, data, false)
		var n int
		secs, comm := shardParallelCost(x, func() { n = shardScaleBatch(x, qs) })
		rows = append(rows, ShardScaleRow{
			Section:           "scale_s",
			S:                 s,
			N:                 p.WarmupN,
			ThroughputMOps:    float64(n) / secs / 1e6,
			CommBytesPerQuery: float64(comm) / float64(n),
		})
	}

	// scale_n: fixed S=4, dataset 1x and 10x. Measures the routed point
	// search batch — the Fig. 8 op whose channel traffic the paper claims
	// is n-independent. (kNN comm per query shrinks with density — the
	// candidate sphere holds fewer leaves at 10x points — which is a
	// property of the data, not of the shard router, so it stays out of
	// the flatness measurement.)
	for _, mult := range []int{1, 10} {
		n := p.WarmupN * mult
		big := workload.Uniform(p.Seed+int64(mult), n, p.Dims)
		bq := workload.QueryPoints(p.Seed+2, big, p.BatchOps)
		x := newShardIndex(p, 4, big, false)
		executed := len(bq)
		secs, comm := shardParallelCost(x, func() { x.SearchBatch(bq) })
		rows = append(rows, ShardScaleRow{
			Section:           "scale_n",
			S:                 4,
			N:                 n,
			ThroughputMOps:    float64(executed) / secs / 1e6,
			CommBytesPerQuery: float64(comm) / float64(executed),
		})
	}

	// storm: hot traffic over shard 0's whole key range, rebalancer armed.
	sdata := workload.Uniform(p.Seed+7, p.WarmupN, p.Dims)
	x := newShardIndex(p, 4, sdata, true)
	st := x.Stats()
	lo, hi := st.PerShard[0].Lo, st.PerShard[0].Hi
	rng := rand.New(rand.NewSource(p.Seed + 11))
	hot := make([]geom.Point, p.BatchOps/4)
	span := hi - lo
	for i := range hot {
		k := lo
		if span > 0 {
			k = lo + rng.Uint64()%(span+1)
		}
		hot[i] = morton.DecodePoint(k, p.Dims)
	}
	storm := func() {
		for r := 0; r < 3; r++ {
			x.SearchBatch(hot)
		}
	}
	storm()
	before := x.Imbalance()
	// The next update batch crosses an epoch boundary and carries the
	// repartition (CheckEvery=1).
	x.InsertBatch(sdata[:64])
	storm()
	after := x.Imbalance()
	rows = append(rows, ShardScaleRow{
		Section:         "storm",
		S:               4,
		N:               p.WarmupN,
		ImbalanceBefore: before,
		ImbalanceAfter:  after,
	})
	return rows
}

// RenderShardScale prints the sweep with the headline speedup.
func RenderShardScale(w io.Writer, rows []ShardScaleRow) {
	fmt.Fprintln(w, "Morton-prefix shard scale-out (modeled parallel-rack time)")
	var s1, s8 float64
	for _, r := range rows {
		switch r.Section {
		case "scale_s":
			fmt.Fprintf(w, "  scale_s  S=%-2d n=%-9d %8.2f Mq/s  %7.1f B/query\n",
				r.S, r.N, r.ThroughputMOps, r.CommBytesPerQuery)
			if r.S == 1 {
				s1 = r.ThroughputMOps
			}
			if r.S == 8 {
				s8 = r.ThroughputMOps
			}
		case "scale_n":
			fmt.Fprintf(w, "  scale_n  S=%-2d n=%-9d %8.2f Mq/s  %7.1f B/query\n",
				r.S, r.N, r.ThroughputMOps, r.CommBytesPerQuery)
		case "storm":
			fmt.Fprintf(w, "  storm    S=%-2d n=%-9d imbalance %.2f -> %.2f after rebalance\n",
				r.S, r.N, r.ImbalanceBefore, r.ImbalanceAfter)
		}
	}
	if s1 > 0 && s8 > 0 {
		fmt.Fprintf(w, "  S=1 -> S=8 speedup: %.2fx\n", s8/s1)
	}
}

// ShardScaleCSV emits the sweep rows.
func ShardScaleCSV(w io.Writer, rows []ShardScaleRow) error {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{
			r.Section, fmt.Sprint(r.S), fmt.Sprint(r.N),
			f(r.ThroughputMOps), f(r.CommBytesPerQuery),
			f(r.ImbalanceBefore), f(r.ImbalanceAfter),
		}
	}
	return writeCSV(w, []string{
		"section", "s", "n", "throughput_mops", "comm_bytes_per_query",
		"imbalance_before", "imbalance_after",
	}, out)
}
