package main

import (
	"fmt"

	"pimzdtree/internal/serve"
)

// metricDef declares one metric. BENCHMARK.json carries the same names,
// units, directions and bounds (the smoke test compares the two).
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEndMetrics is what a user of the index or the server would see.
// BENCHMARK.json has one bound per metric, so each is what the noisiest
// workload needs: at least three times the widest A/A quartile spread
// measured on the sizing box (README.md has the table), capped at the
// contract's 0.25, which every wall- or CPU-timed metric reaches.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "op/s", "higher", 0.25},
	{"lat_p50_ms", "ms", "lower", 0.25},
	{"lat_p95_ms", "ms", "lower", 0.25},
	{"slo_ok_ratio", "ratio", "higher", 0.005},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"allocs_per_op", "1/op", "lower", 0.20},
	{"rss_peak_mb", "MB", "lower", 0.08},
	{"modeled_mops", "Mop/s", "higher", 0.20},
	{"chan_bytes_per_op", "B", "lower", 0.04},
	{"pim_imbalance", "ratio", "lower", 0.15},
}

// perLayerMetrics is one row per layer boundary, from the traced run.
var perLayerMetrics = buildPerLayer()

func buildPerLayer() []metricDef {
	var d []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			d = append(d, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	perOp := func(format string) (names []string) {
		for _, op := range opNames {
			names = append(names, fmt.Sprintf(format, op))
		}
		return names
	}
	// core
	add("us", "lower", "core.search_us_per_op", "core.knn_us_per_op", "core.box_us_per_op",
		"core.insert_us_per_op", "core.delete_us_per_op", "core.query_fixed_us")
	add("ms", "lower", "core.update_fixed_ms")
	add("count", "lower", "core.allocs_per_batch.query", "core.allocs_per_batch.update")
	add("s", "lower", "core.build_s")
	// pim + costmodel
	add("count", "lower", perOp("pim.rounds_per_batch.%s")...)
	add("B", "lower", perOp("pim.chan_bytes_per_op.%s")...)
	add("us", "lower", perOp("pim.modeled_us_per_op.%s")...)
	add("ratio", "lower", "pim.cpu_share", "pim.pim_share", "pim.comm_share")
	add("us", "lower", "pim.host_us_per_round")
	// morton, parallel, workload
	add("ns", "lower", "morton.encode_ns_per_key", "parallel.sort_ns_per_key", "parallel.semisort_ns_per_key")
	add("s", "lower", "workload.gen_s")
	// shard
	add("ms", "lower", perOp("shard.batch_ms.%s")...)
	add("us", "lower", "shard.router_us_per_batch")
	add("count", "lower", "shard.fanout_mean")
	add("ratio", "higher", "shard.pruned_ratio")
	add("count", "lower", "shard.rebalances", "shard.migrated_points")
	// serve (engine)
	for _, s := range serve.StageNames {
		add("ms", "lower", "serve.stage_ms_p50."+s)
	}
	add("ms", "lower", "serve.stage_ms_p95.queue", "serve.stage_ms_p95.fence", "serve.stage_ms_p95.exec")
	add("count", "higher", "serve.req_per_epoch", "serve.batch_ops_mean")
	add("1/s", "lower", "serve.epochs_per_s")
	add("ratio", "lower", "serve.shed_ratio")
	add("ms", "lower", "serve.lat_p99_ms", "serve.lat_p999_ms")
	// serve (wire, http): the ladder
	add("us", "lower", "ladder.core_us_per_req", "ladder.shard_us_per_req", "ladder.engine_us_per_req",
		"ladder.tcp_us_per_req", "ladder.http_us_per_req", "wire.overhead_us_per_req")
	// obs + metrics
	add("ratio", "lower", "obs.overhead_ratio")
	// the benchmark's own load generator and tracer
	add("ms", "lower", "loadgen.late_p99_ms", "loadgen.late_max_ms")
	add("ratio", "higher", "loadgen.achieved_ratio")
	add("ratio", "lower", "slo.miss_ratio")
	add("ratio", "higher", "trace.overhead_ratio")
	add("count", "lower", "trace.spans")
	// Go runtime
	add("count", "lower", "go.gc_cycles")
	add("ms", "lower", "go.gc_pause_ms")
	add("MB", "lower", "go.heap_peak_mb")
	add("B", "lower", "go.alloc_bytes_per_op")
	return d
}

// runSeconds is the -seconds the driver passes (BENCHMARK.json run_seconds).
const runSeconds = 20

// workloadWhy says, in one line each, why the workloads exist.
var workloadWhy = []struct{ Name, Why string }{
	{"tree-read", "library, closed loop: the paper's query panel (search, kNN, box count in 16k/2k/2k batches) on one skewed 2M-point tree; core kernels, wave router, sort and round simulator do all the work"},
	{"tree-churn", "library, closed loop: 8192-point insert, delete and search rounds on a 1M-point tree; update path, relayout and allocation at the paper's batch size, where per-batch fixed cost is amortised"},
	{"serve-mixed", "open loop, Poisson 1500 req/s of 1-8 point requests, one write in five, engine over two shards; per-epoch fixed costs, coalescing, admission and the shard router decide latency"},
	{"wire-read", "closed loop, one TCP connection per CPU, read-only 128-point searches and 16-point kNN; codec, socket, intake and reply scatter per request; the control for update-path changes"},
}

// describe returns the contents of BENCHMARK.json: the metric tables above
// are the single source, and the smoke test checks the file against them.
func describe() map[string]any {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var ws []wl
	for _, w := range workloadWhy {
		ws = append(ws, wl(w))
	}
	var es []e2e
	for _, d := range endToEndMetrics {
		es = append(es, e2e(d))
	}
	var ls []layer
	for _, d := range perLayerMetrics {
		ls = append(ls, layer{d.Name, d.Unit, d.Better})
	}
	return map[string]any{
		"command":     []string{"bash", "benchmark/run.sh"},
		"paths":       []string{"benchmark"},
		"run_seconds": runSeconds,
		"workloads":   ws,
		"end_to_end":  es,
		"per_layer":   ls,
	}
}
