package shard

import (
	"time"

	"pimzdtree/internal/obs"
	"pimzdtree/internal/pim"
)

// Per-batch fan-out capture: when enabled, every routed batch fills an
// obs.FanoutReport — which shards it touched, each shard's modeled
// cycles/bytes delta and fork-join wall share, per-query fan-out width,
// and how many shard probes the block hierarchy pruned. The serving
// engine (serve.FanoutSource) drains the report after each backend batch
// and folds it into slow-request records and the pimzd_shard_fanout
// histogram.
//
// Capture is off by default and free when off: the batch paths test one
// bool and skip every hook. When on, the per-shard instrumentation costs
// two metrics snapshots and two clock reads per touched shard per batch —
// scratch is reused, so steady-state batches allocate only for span-list
// growth on the first few batches.

// fanState is the capture scratch, reset per batch. All fields are
// guarded by Index.mu like the routing scratch (batches are externally
// serialized; SetFanoutCapture and TakeFanout take the lock themselves).
type fanState struct {
	on   bool
	live bool // the last batch filled rep

	rep  obs.FanoutReport
	perQ []int32

	// per-shard accumulation, indexed by shard (sized on demand so
	// rebalancing's shard-count changes are absorbed).
	queries []int32
	cycles  []int64
	bytes   []int64
	wall    []float64
	touched []bool
}

// SetFanoutCapture toggles per-batch fan-out capture. At one shard every
// batch reports one span for shard 0, a fan-out of 1 per query and nothing
// pruned.
func (x *Index) SetFanoutCapture(on bool) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.fan.on = on
	x.fan.live = false
}

// TakeFanout returns the last batch's fan-out report and marks it
// consumed, or nil when capture is off (or no batch ran since the last
// take). The report's slices alias capture scratch: they are valid until
// the next batch.
func (x *Index) TakeFanout() *obs.FanoutReport {
	x.mu.Lock()
	defer x.mu.Unlock()
	if !x.fan.live {
		return nil
	}
	x.fan.live = false
	return &x.fan.rep
}

// fanBegin resets the capture scratch for a batch of nq queries.
func (x *Index) fanBegin(op string, nq int) {
	f := &x.fan
	if !f.on {
		return
	}
	s := len(x.sh)
	if cap(f.perQ) < nq {
		f.perQ = make([]int32, nq)
	}
	f.perQ = f.perQ[:nq]
	for i := range f.perQ {
		f.perQ[i] = 0
	}
	if cap(f.queries) < s {
		f.queries = make([]int32, s)
		f.cycles = make([]int64, s)
		f.bytes = make([]int64, s)
		f.wall = make([]float64, s)
		f.touched = make([]bool, s)
	}
	f.queries = f.queries[:s]
	f.cycles = f.cycles[:s]
	f.bytes = f.bytes[:s]
	f.wall = f.wall[:s]
	f.touched = f.touched[:s]
	for i := 0; i < s; i++ {
		f.queries[i], f.cycles[i], f.bytes[i] = 0, 0, 0
		f.wall[i], f.touched[i] = 0, false
	}
	f.rep = obs.FanoutReport{Op: op}
}

// fanShard wraps one shard's share of a fork-join phase, accumulating its
// wall time and modeled-cost delta. Each shard owns its own system and
// its own accumulation slots, so concurrent fork-join members don't race.
func (x *Index) fanShard(s, nq int, fn func()) {
	f := &x.fan
	if !f.on {
		fn()
		return
	}
	var base pim.Metrics
	sys := x.sh[s].tree.System()
	if sys != nil {
		base = sys.Metrics()
	}
	start := time.Now()
	fn()
	f.wall[s] += time.Since(start).Seconds()
	if sys != nil {
		d := sys.Metrics().Sub(base)
		f.cycles[s] += d.PIMCycleSum
		f.bytes[s] += d.ChannelBytes()
	}
	f.queries[s] += int32(nq)
	f.touched[s] = true
}

// fanQuery adds one shard touch for query i.
func (x *Index) fanQuery(i int) {
	if x.fan.on {
		x.fan.perQ[i]++
	}
}

// fanPrune counts a shard probe the block hierarchy excluded; fanTest
// counts block-distance (or block-box) tests the pruning ran.
func (x *Index) fanPrune(n int) {
	if x.fan.on {
		x.fan.rep.Pruned += n
	}
}

func (x *Index) fanTest(n int) {
	if x.fan.on {
		x.fan.rep.BlockTests += n
	}
}

// fanFinish assembles the report from the per-shard accumulators (shard
// order, so the span list is deterministic) and publishes it for
// TakeFanout.
func (x *Index) fanFinish() {
	f := &x.fan
	if !f.on {
		return
	}
	f.rep.Shards = f.rep.Shards[:0]
	for s := range f.touched {
		if !f.touched[s] {
			continue
		}
		f.rep.Shards = append(f.rep.Shards, obs.FanoutSpan{
			Shard:       s,
			Queries:     int(f.queries[s]),
			Cycles:      f.cycles[s],
			Bytes:       f.bytes[s],
			WallSeconds: f.wall[s],
		})
	}
	f.rep.PerQuery = f.perQ
	f.live = true
}

// fanUpdateDone finishes capture for a routed update batch: every point
// lands on exactly its home shard, so per-query fan-out is 1.
func (x *Index) fanUpdateDone() {
	if !x.fan.on {
		return
	}
	for i := range x.fan.perQ {
		x.fan.perQ[i] = 1
	}
	x.fanFinish()
}
