package serve

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"pimzdtree/internal/core"
	"pimzdtree/internal/geom"
	"pimzdtree/internal/metrics"
	"pimzdtree/internal/obs"
)

// Config configures an Engine.
type Config struct {
	// Backend is the index being served (required).
	Backend Backend
	// Shards is the intake shard count (0 = GOMAXPROCS).
	Shards int
	// MaxQueuedOps bounds admitted-but-incomplete point-ops; beyond it
	// submissions shed with ErrQueueFull (0 = 65536).
	MaxQueuedOps int64
	// MaxBatch caps the points/boxes per coalesced tree batch; larger
	// epochs split into several native batches (0 = 8192).
	MaxBatch int
	// MaxK bounds OpKNN's k (0 = 128).
	MaxK int
	// Registry, when non-nil, receives the serving metrics families (all
	// Wall-marked: request latency, queue depth, epoch occupancy, shed
	// and epoch counters, per-stage wall histograms).
	Registry *metrics.Registry
	// Flight, when enabled, supplies per-batch trace IDs threaded into
	// responses and request-latency exemplars.
	Flight *obs.FlightRecorder
	// Requests, when enabled, captures slow requests with their full
	// stage decomposition (see RequestTracer).
	Requests *RequestTracer
	// SLO, when enabled, receives every finished request's (op, wall,
	// failed) observation for burn-rate tracking.
	SLO *metrics.SLOTracker
}

// FanoutSource is implemented by sharded backends that can report the
// per-query shard fan-out of the batch they just executed (see
// shard.Index.SetFanoutCapture). The engine folds reports into slow
// request records and the pimzd_shard_fanout histogram.
type FanoutSource interface {
	// TakeFanout returns the last batch's fan-out report, or nil when
	// capture is off. The report's slices are valid until the next batch.
	TakeFanout() *obs.FanoutReport
}

func (c *Config) fill() {
	if c.Backend == nil {
		panic("serve: Config.Backend is required")
	}
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueuedOps <= 0 {
		c.MaxQueuedOps = 1 << 16
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8192
	}
	if c.MaxK <= 0 {
		c.MaxK = 128
	}
}

// engineMetrics are the serving-layer families. All are Wall-marked:
// their values depend on real arrival timing, so they must stay out of
// the modeled-only exposition CI golden-tests.
type engineMetrics struct {
	requests *metrics.CounterVec    // pimzd_requests_total{op}
	shed     *metrics.CounterVec    // pimzd_requests_shed_total{op}
	reqSec   *metrics.HistogramVec  // pimzd_request_seconds{op}
	queueOps *metrics.Gauge         // pimzd_intake_queue_ops
	epochSec *metrics.HistogramVec  // pimzd_epoch_seconds{phase}
	batchOps *metrics.HistogramVec  // pimzd_coalesced_batch_ops{op}
	epochs   *metrics.Counter       // pimzd_epochs_total
	stageSec *metrics.HistogramVec2 // pimzd_request_stage_seconds{op,stage}
	fanout   *metrics.Histogram     // pimzd_shard_fanout
	panics   *metrics.Counter       // pimzd_backend_panics_total
}

func newEngineMetrics(reg *metrics.Registry) engineMetrics {
	return engineMetrics{
		requests: reg.NewCounterVec(metrics.Opts{Name: "pimzd_requests_total",
			Help: "Client requests completed, by operation.", Wall: true, Label: "op"}),
		shed: reg.NewCounterVec(metrics.Opts{Name: "pimzd_requests_shed_total",
			Help: "Client requests shed by admission control, by operation.", Wall: true, Label: "op"}),
		reqSec: reg.NewHistogramVec(metrics.HistogramOpts{Opts: metrics.Opts{
			Name: "pimzd_request_seconds",
			Help: "End-to-end request latency (enqueue to response), wall clock.",
			Wall: true, Label: "op"}, Buckets: metrics.WallSecondsBuckets()}),
		queueOps: reg.NewGauge(metrics.Opts{Name: "pimzd_intake_queue_ops",
			Help: "Admitted-but-incomplete point-ops (admission-control depth).", Wall: true}),
		epochSec: reg.NewHistogramVec(metrics.HistogramOpts{Opts: metrics.Opts{
			Name: "pimzd_epoch_seconds",
			Help: "Wall-clock occupancy of epoch phases (read, update).",
			Wall: true, Label: "phase"}, Buckets: metrics.WallSecondsBuckets()}),
		batchOps: reg.NewHistogramVec(metrics.HistogramOpts{Opts: metrics.Opts{
			Name: "pimzd_coalesced_batch_ops",
			Help: "Point-ops per coalesced native tree batch, by operation.",
			Wall: true, Label: "op"}, Buckets: metrics.CountBuckets()}),
		epochs: reg.NewCounter(metrics.Opts{Name: "pimzd_epochs_total",
			Help: "Executed engine epochs.", Wall: true}),
		stageSec: reg.NewHistogramVec2(metrics.HistogramOpts{Opts: metrics.Opts{
			Name: "pimzd_request_stage_seconds",
			Help: "Per-stage request wall time through the serving pipeline.",
			Wall: true}, Buckets: metrics.WallSecondsBuckets()}, "op", "stage"),
		fanout: reg.NewHistogram(metrics.HistogramOpts{Opts: metrics.Opts{
			Name: "pimzd_shard_fanout",
			Help: "Shards touched per routed query (sharded backends with fan-out capture on).",
			Wall: true}, Buckets: metrics.CountBuckets()}),
		panics: reg.NewCounter(metrics.Opts{Name: "pimzd_backend_panics_total",
			Help: "Epochs abandoned because the backend panicked; their unfinished requests failed with an internal error.", Wall: true}),
	}
}

// epochPlan is one coalesced unit of work: every request one executor
// drain picked up, in drain order.
type epochPlan struct {
	all []*Request
}

// Engine is the concurrent serving engine. Construct with New; stop with
// Shutdown.
type Engine struct {
	cfg Config
	in  *intake
	m   engineMetrics

	execDone chan struct{}

	closed  atomic.Bool
	aborted atomic.Bool

	fenceViolations atomic.Int64
	epochsRun       atomic.Int64

	// fanSrc is non-nil when the backend can report shard fan-out.
	fanSrc FanoutSource

	// stageH pre-resolves the per-(op,stage) wall histograms so the
	// request finish path observes stages without map lookups or
	// allocation (nil cells no-op when the registry is absent).
	stageH [opBarrier + 1][NumStages]*metrics.Histogram

	// executor scratch (executor goroutine only)
	ptsArena   []geom.Point
	boxArena   []geom.Box
	foundArena []bool

	// fan-out capture scratch (executor goroutine only; valid for the
	// duration of one runOp call — requests alias fanChunkSpans entries
	// and read them only inside finish, before the next runOp resets)
	fanPerQ        []int32
	fanChunkSpans  [][]obs.FanoutSpan
	fanChunkPruned []int32
	fanLive        bool
}

// New starts an engine (its executor goroutine) over cfg.Backend.
func New(cfg Config) *Engine {
	cfg.fill()
	e := &Engine{
		cfg:      cfg,
		in:       newIntake(cfg.Shards, cfg.MaxQueuedOps),
		m:        newEngineMetrics(cfg.Registry),
		execDone: make(chan struct{}),
	}
	if fs, ok := cfg.Backend.(FanoutSource); ok {
		e.fanSrc = fs
	}
	if e.m.stageSec != nil {
		for op := OpSearch; op <= opBarrier; op++ {
			for s := 0; s < NumStages; s++ {
				e.stageH[op][s] = e.m.stageSec.With(op.String(), StageNames[s])
			}
		}
	}
	go e.executor()
	return e
}

// Submit enqueues r for a future epoch; the caller waits on r.Done().
// Errors (validation, shed, shutdown) mean r was NOT enqueued and Done
// will never close.
func (e *Engine) Submit(r *Request) error {
	if r.done == nil {
		r.done = make(chan struct{})
	}
	r.stamp(bAdmitted)
	r.enq = time.Now()
	if e.closed.Load() {
		e.m.shed.With(r.Op.String()).Add(1)
		return ErrShuttingDown
	}
	if err := e.validate(r); err != nil {
		return err
	}
	// Stamp before push: once r is in the queue the executor owns it, and
	// a late stamp here would race with it sealing the stamps.
	r.stamp(bEnqueued)
	if err := e.in.push(r); err != nil {
		e.m.shed.With(r.Op.String()).Add(1)
		return err
	}
	e.m.queueOps.Set(float64(e.in.queuedOps()))
	return nil
}

// Do submits r and waits for completion or ctx expiry. On submit failure
// or ctx expiry the returned error is also stored in r.Resp.Err.
func (e *Engine) Do(ctx context.Context, r *Request) error {
	if err := e.Submit(r); err != nil {
		r.Resp.Err = err
		return err
	}
	select {
	case <-r.Done():
		return r.Resp.Err
	case <-ctx.Done():
		// The engine still owns r and will complete it; the caller just
		// stops waiting.
		return ctx.Err()
	}
}

// Barrier submits a fence request and waits until every request admitted
// before it has completed — a deterministic epoch cut for tests and
// drains.
func (e *Engine) Barrier(ctx context.Context) error {
	return e.Do(ctx, NewRequest(opBarrier))
}

// Shutdown stops intake (subsequent Submits fail with ErrShuttingDown),
// drains everything already admitted, and returns once the executor has
// exited. If ctx expires first, still-pending requests complete
// immediately with ErrDrainDeadline (the HTTP/TCP layers surface that as
// 503) and Shutdown returns ctx.Err().
func (e *Engine) Shutdown(ctx context.Context) error {
	e.closed.Store(true)
	e.in.wake()
	select {
	case <-e.execDone:
		return nil
	case <-ctx.Done():
		e.aborted.Store(true)
		e.in.wake()
		<-e.execDone
		return ctx.Err()
	}
}

// Stats is a point-in-time engine snapshot (served by /v1/status).
type Stats struct {
	Epoch           uint64 `json:"epoch"`
	EpochsRun       int64  `json:"epochs_run"`
	QueuedOps       int64  `json:"queued_ops"`
	FenceViolations int64  `json:"fence_violations"`
	ShuttingDown    bool   `json:"shutting_down"`
}

// Stats returns a snapshot of the engine's state.
func (e *Engine) Stats() Stats {
	return Stats{
		Epoch:           e.cfg.Backend.Epoch(),
		EpochsRun:       e.epochsRun.Load(),
		QueuedOps:       e.in.queuedOps(),
		FenceViolations: e.fenceViolations.Load(),
		ShuttingDown:    e.closed.Load(),
	}
}

// FenceViolations returns how many read phases observed an epoch change
// mid-phase. Always zero unless the backend is driven outside the engine.
func (e *Engine) FenceViolations() int64 { return e.fenceViolations.Load() }

// executor cuts and runs epochs one at a time. Whenever it is free it
// drains the intake, so each plan is everything that arrived while the
// previous epoch ran and a request waits for at most the epoch in flight.
// Batch size adapts to load: an idle engine cuts tiny low-latency epochs,
// a loaded one coalesces everything that queued behind the current epoch.
func (e *Engine) executor() {
	defer close(e.execDone)
	var buf []*Request
	for {
		buf = e.in.drain(buf[:0])
		if len(buf) == 0 {
			if !e.closed.Load() {
				<-e.in.notify
				continue
			}
			// closed is set before the shutdown wake: one more empty drain
			// after seeing it means nothing is left to admit.
			if buf = e.in.drain(buf[:0]); len(buf) == 0 {
				return
			}
		}
		stampAll(buf, bDrained)
		stampAll(buf, bPlanned)
		e.runPlan(&epochPlan{all: buf})
		clear(buf) // the requests are finished; do not pin them
	}
}

// runPlan executes one plan and contains a panicking backend: the plan's
// unfinished requests fail with ErrBackendPanic (releasing their admission
// ops through finish), the panic is reported and counted, and the executor
// moves on to the next plan. Whatever state the backend was left in is the
// backend's problem; the engine's own state is rebuilt per plan.
func (e *Engine) runPlan(p *epochPlan) {
	defer func() {
		v := recover()
		if v == nil {
			return
		}
		fmt.Fprintf(os.Stderr, "serve: backend panic: %v\n%s", v, debug.Stack())
		e.m.panics.Add(1)
		for _, r := range p.all {
			select {
			case <-r.done: // completed before the panic
			default:
				r.Resp.Err = ErrBackendPanic
				e.finish(r)
			}
		}
	}()
	e.execute(p)
}

// execute runs one epoch: read phase against the published snapshot
// (epoch-fenced), then the update phase, then barrier completion.
func (e *Engine) execute(p *epochPlan) {
	if e.aborted.Load() {
		e.failAll(p.all)
		return
	}
	stampAll(p.all, bFenced)
	var searches, knns, boxes, inserts, deletes, barriers []*Request
	for _, r := range p.all {
		switch r.Op {
		case OpSearch:
			searches = append(searches, r)
		case OpKNN:
			knns = append(knns, r)
		case OpBox:
			boxes = append(boxes, r)
		case OpInsert:
			inserts = append(inserts, r)
		case OpDelete:
			deletes = append(deletes, r)
		case opBarrier:
			barriers = append(barriers, r)
		}
	}

	// Read phase: every read batch of this epoch sees the same published
	// root. The fence proves it — the backend is engine-owned, so the
	// epoch cannot move under a read phase unless something outside the
	// engine drives the tree (a bug this counter surfaces).
	readStart := time.Now()
	readEpoch := e.cfg.Backend.Epoch()
	e.runOp(OpSearch, 0, searches, readEpoch)
	e.runKNNs(knns, readEpoch)
	e.runOp(OpBox, 0, boxes, readEpoch)
	if got := e.cfg.Backend.Epoch(); got != readEpoch {
		e.fenceViolations.Add(1)
	}
	if len(searches)+len(knns)+len(boxes) > 0 {
		e.m.epochSec.With("read").Observe(time.Since(readStart).Seconds())
	}

	// Update phase: inserts apply before deletes; both publish epochs
	// that the next plan's read phase will observe.
	updStart := time.Now()
	e.runOp(OpInsert, 0, inserts, 0)
	e.runOp(OpDelete, 0, deletes, 0)
	if len(inserts)+len(deletes) > 0 {
		e.m.epochSec.With("update").Observe(time.Since(updStart).Seconds())
	}

	for _, b := range barriers {
		b.Resp.Epoch = e.cfg.Backend.Epoch()
		e.finish(b)
	}
	e.epochsRun.Add(1)
	e.m.epochs.Add(1)
}

// lastTrace returns the flight recorder's most recent trace ID (0 when
// tracing is off).
func (e *Engine) lastTrace() uint64 {
	if !e.cfg.Flight.Enabled() {
		return 0
	}
	return e.cfg.Flight.LastTrace()
}

// runKNNs groups kNN requests by k (ascending, deterministic) and runs
// one coalesced batch sequence per distinct k.
func (e *Engine) runKNNs(reqs []*Request, epoch uint64) {
	if len(reqs) == 0 {
		return
	}
	ks := make([]int, 0, 4)
	byK := make(map[int][]*Request)
	for _, r := range reqs {
		if _, ok := byK[r.K]; !ok {
			ks = append(ks, r.K)
		}
		byK[r.K] = append(byK[r.K], r)
	}
	sort.Ints(ks)
	for _, k := range ks {
		e.runOp(OpKNN, k, byK[k], epoch)
	}
}

// runOp is the one gather → execute → scatter routine: it coalesces reqs
// (all of one op, drain order preserved; kNN: all of one k) into a flat
// arena, runs it through the backend in MaxBatch-sized native batches —
// recording the flight trace ID, fan-out report and batch size of each —
// and scatters every request its slice of the results. Reads report
// readEpoch, the snapshot the whole read phase ran against; each update
// batch publishes a new epoch and a request reports the one its last
// point landed in. A shutdown abort mid-sequence stops before the next
// batch and fails the whole group with ErrDrainDeadline (some batches may
// have executed, but no request gets partial results).
func (e *Engine) runOp(op Op, k int, reqs []*Request, readEpoch uint64) {
	if len(reqs) == 0 {
		return
	}
	total := 0
	for _, r := range reqs {
		total += r.items()
	}
	var pts []geom.Point
	var boxes []geom.Box
	if op == OpBox {
		if cap(e.boxArena) < total {
			e.boxArena = make([]geom.Box, total)
		}
		boxes = e.boxArena[:0]
		for _, r := range reqs {
			boxes = append(boxes, r.Boxes...)
		}
	} else {
		if cap(e.ptsArena) < total {
			e.ptsArena = make([]geom.Point, total)
		}
		pts = e.ptsArena[:0]
		for _, r := range reqs {
			pts = append(pts, r.Pts...)
		}
	}

	maxBatch := e.cfg.MaxBatch
	nChunks := (total + maxBatch - 1) / maxBatch
	var (
		found     []bool            // OpSearch: engine scratch, copied out per request
		neighbors [][]core.Neighbor // OpKNN: shared, requests alias their slice
		counts    []int64           // OpBox: shared, requests alias their slice
		epochs    []uint64          // updates: epoch published by each batch
	)
	switch op {
	case OpSearch:
		if cap(e.foundArena) < total {
			e.foundArena = make([]bool, total)
		}
		found = e.foundArena[:total]
	case OpKNN:
		neighbors = make([][]core.Neighbor, total)
	case OpBox:
		counts = make([]int64, total)
	default:
		epochs = make([]uint64, 0, nChunks)
	}

	b := e.cfg.Backend
	traces := make([]uint64, nChunks)
	e.resetFanout(total, nChunks)
	for c := 0; c < nChunks; c++ {
		if e.aborted.Load() {
			markAborted(reqs)
			break
		}
		lo := c * maxBatch
		hi := min(lo+maxBatch, total)
		switch op {
		case OpSearch:
			copy(found[lo:hi], b.SearchBatch(pts[lo:hi]))
		case OpKNN:
			copy(neighbors[lo:hi], b.KNNBatch(pts[lo:hi], k))
		case OpBox:
			copy(counts[lo:hi], b.BoxCountBatch(boxes[lo:hi]))
		case OpInsert:
			b.InsertBatch(pts[lo:hi])
			epochs = append(epochs, b.Epoch())
		case OpDelete:
			b.DeleteBatch(pts[lo:hi])
			epochs = append(epochs, b.Epoch())
		}
		traces[c] = e.lastTrace()
		e.captureFanout(c, lo, hi)
		e.m.batchOps.With(op.String()).Observe(float64(hi - lo))
	}

	off := 0
	for _, r := range reqs {
		n := r.items()
		r.stamp(bExecuted)
		if r.Resp.Err == nil {
			last := (off + n - 1) / maxBatch
			r.Resp.Epoch = readEpoch
			switch op {
			case OpSearch:
				r.Resp.Found = append([]bool(nil), found[off:off+n]...)
			case OpKNN:
				r.Resp.Neighbors = neighbors[off : off+n : off+n]
			case OpBox:
				r.Resp.Counts = counts[off : off+n : off+n]
			default:
				r.Resp.Applied = n
				r.Resp.Epoch = epochs[last]
			}
			r.Resp.Trace = traces[last]
			r.firstTrace = traces[off/maxBatch]
			e.attachFanout(r, off, n)
		}
		off += n
		e.finish(r)
	}
}

// markAborted flags a request group as killed by the drain deadline; the
// scatter loops then skip result assignment and finish() completes them
// with the error.
func markAborted(reqs []*Request) {
	for _, r := range reqs {
		if r.Resp.Err == nil {
			r.Resp.Err = ErrDrainDeadline
		}
	}
}

// resetFanout sizes the fan-out scratch for one runOp and clears the
// live flag. Invalidates any spans requests from the previous run still
// alias — those are only read inside finish, which has already happened.
func (e *Engine) resetFanout(total, nChunks int) {
	e.fanLive = false
	if e.fanSrc == nil {
		return
	}
	if cap(e.fanPerQ) < total {
		e.fanPerQ = make([]int32, total)
	}
	e.fanPerQ = e.fanPerQ[:total]
	for i := range e.fanPerQ {
		e.fanPerQ[i] = 0
	}
	for cap(e.fanChunkSpans) < nChunks {
		e.fanChunkSpans = append(e.fanChunkSpans[:cap(e.fanChunkSpans)], nil)
	}
	e.fanChunkSpans = e.fanChunkSpans[:nChunks]
	if cap(e.fanChunkPruned) < nChunks {
		e.fanChunkPruned = make([]int32, nChunks)
	}
	e.fanChunkPruned = e.fanChunkPruned[:nChunks]
}

// captureFanout folds one chunk's fan-out report into the scratch and the
// pimzd_shard_fanout histogram. The report's slices are only valid until
// the next backend batch, so the span list is copied into per-chunk
// scratch here (reused across runs after the first).
func (e *Engine) captureFanout(c, lo, hi int) {
	if e.fanSrc == nil {
		return
	}
	rep := e.fanSrc.TakeFanout()
	if rep == nil {
		return
	}
	e.fanLive = true
	copy(e.fanPerQ[lo:hi], rep.PerQuery)
	e.fanChunkSpans[c] = append(e.fanChunkSpans[c][:0], rep.Shards...)
	e.fanChunkPruned[c] = int32(rep.Pruned)
	for _, f := range rep.PerQuery {
		e.m.fanout.Observe(float64(f))
	}
}

// attachFanout hands a scattered request its fan-out context: the max
// per-query fan-out across its own queries, and the span breakdown of the
// chunk that served its tail. The spans alias engine scratch — valid
// until the next runOp, i.e. through this request's finish.
func (e *Engine) attachFanout(r *Request, off, n int) {
	if !e.fanLive || n == 0 {
		return
	}
	var m int32
	for _, f := range e.fanPerQ[off : off+n] {
		if f > m {
			m = f
		}
	}
	r.fanMax = m
	if c := (off + n - 1) / e.cfg.MaxBatch; c < len(e.fanChunkSpans) {
		r.fanSpans = e.fanChunkSpans[c]
		r.fanPruned = e.fanChunkPruned[c]
	}
}

// finish completes one request: latency histogram (exemplared with the
// serving batch's trace ID when available), completion counters,
// admission release.
func (e *Engine) finish(r *Request) {
	r.stamp(bReplied)
	e.observeStages(r)
	wall := time.Since(r.enq).Seconds()
	op := r.Op.String()
	e.m.requests.With(op).Add(1)
	if h := e.m.reqSec.With(op); h != nil {
		if r.Resp.Trace != 0 {
			h.ObserveExemplar(wall, strconv.FormatUint(r.Resp.Trace, 10))
		} else {
			h.Observe(wall)
		}
	}
	e.in.releaseOps(r.opCount())
	e.m.queueOps.Set(float64(e.in.queuedOps()))
	r.complete()
}

// observeStages seals the request's stage stamps and feeds every consumer
// of the decomposition: Response.StageNanos, the per-(op,stage) wall
// histograms, the SLO tracker, and slow-request capture. Allocation-free
// on the steady-state path (pre-resolved histogram table, constant op
// strings, capture fast path compares under a lock and returns).
func (e *Engine) observeStages(r *Request) {
	if r.ts[bAdmitted] == 0 || r.Op < OpSearch || r.Op > opBarrier {
		return // not admitted through Submit (engine-internal test paths)
	}
	total := r.sealStamps()
	for s := 0; s < NumStages; s++ {
		r.Resp.StageNanos[s] = r.ts[s+1] - r.ts[s]
		if h := e.stageH[r.Op][s]; h != nil {
			h.Observe(r.stageSeconds(s))
		}
	}
	e.cfg.SLO.Observe(r.Op.String(), total, r.Resp.Err != nil)
	e.cfg.Requests.offer(r, total)
}

// failAll completes every request of a plan with ErrDrainDeadline.
func (e *Engine) failAll(reqs []*Request) {
	for _, r := range reqs {
		r.Resp.Err = ErrDrainDeadline
		e.finish(r)
	}
}
