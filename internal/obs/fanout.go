package obs

// Cross-shard fan-out spans: when a sharded backend has fan-out capture
// enabled, every routed batch fills a FanoutReport describing which
// shards the batch touched, what each shard cost (modeled cycles/bytes
// plus wall time), how many queries fanned out where, and how much work
// the block-BVH pruning excluded. The serving engine folds the report
// into per-request slow-capture records and the pimzd_shard_fanout
// histogram, so a cross-shard query that blew its latency bound is
// attributable to the shard that caused it.
//
// The types live here (not in internal/shard) so internal/serve can
// consume reports without importing the shard layer: obs is the common
// observability vocabulary both sides already speak.

// FanoutSpan is one shard's share of a routed batch.
type FanoutSpan struct {
	// Shard is the shard index in shard order.
	Shard int `json:"shard"`
	// Queries is how many of the batch's queries this shard served
	// (home-routed plus fanned-out).
	Queries int `json:"queries"`
	// Cycles and Bytes are the shard rack's modeled deltas over the batch.
	Cycles int64 `json:"cycles"`
	Bytes  int64 `json:"bytes"`
	// WallSeconds is the shard's real execution time within the batch
	// (fork-join member time, not wall of the whole batch).
	WallSeconds float64 `json:"wall_seconds"`
}

// FanoutReport describes how one routed batch spread across shards.
// The report's slices alias capture scratch owned by the producing
// index: the consumer must copy anything it keeps past the next batch.
type FanoutReport struct {
	// Op is the batch operation ("search", "knn", "box-count", ...).
	Op string `json:"op"`
	// Shards lists the touched shards in shard order.
	Shards []FanoutSpan `json:"shards"`
	// PerQuery is, per query in batch order, how many shards that query
	// touched (1 for home-only ops; 1+fanned for kNN; cover size for box
	// counts).
	PerQuery []int32 `json:"-"`
	// Pruned counts shard probes the block BVH excluded (kNN fan-out
	// candidates whose key range the distance bound ruled out).
	Pruned int `json:"pruned"`
	// BlockTests counts block-distance tests the pruning ran.
	BlockTests int `json:"block_tests"`
}
