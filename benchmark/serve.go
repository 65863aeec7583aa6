package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"pimzdtree/internal/core"
	"pimzdtree/internal/costmodel"
	"pimzdtree/internal/geom"
	"pimzdtree/internal/metrics"
	"pimzdtree/internal/obs"
	"pimzdtree/internal/serve"
	"pimzdtree/internal/shard"
	"pimzdtree/internal/workload"
)

// armed is the observability cmd/pimzd-serve switches on by default: the
// metrics registry fed by a retention-free recorder, the flight ring, the
// slow-request capture and the SLO tracker, with that command's default
// sizes and objectives.
type armed struct {
	reg    *metrics.Registry
	rec    *obs.Recorder
	flight *obs.FlightRecorder
	reqs   *serve.RequestTracer
	slo    *metrics.SLOTracker
}

func arm() *armed {
	a := &armed{reg: metrics.New(), rec: obs.New()}
	a.rec.SetRetainEvents(false)
	a.rec.SetSink(metrics.NewObsSink(a.reg))
	a.rec.SetModuleSampling(32)
	a.flight = obs.NewFlightRecorder(obs.FlightConfig{Ring: 256, SlowK: 16})
	a.rec.SetFlight(a.flight)
	a.reqs = serve.NewRequestTracer(serve.RequestTraceConfig{SlowK: 16})
	a.slo = metrics.NewSLOTracker(metrics.SLOConfig{Registry: a.reg, Objectives: []metrics.SLOObjective{
		{Op: "search", LatencySeconds: 0.050, Target: 0.99},
		{Op: "insert", LatencySeconds: 0.050, Target: 0.99},
		{Op: "delete", LatencySeconds: 0.050, Target: 0.99},
		{Op: "knn", LatencySeconds: 0.100, Target: 0.99},
		{Op: "box", LatencySeconds: 0.100, Target: 0.99},
	}})
	return a
}

// engine starts a pipeline-mode engine with default sizes; a nil a leaves
// every observability hook off.
func (a *armed) engine(b serve.Backend) *serve.Engine {
	cfg := serve.Config{Backend: b, MaxK: 128}
	if a != nil {
		cfg.Registry, cfg.Flight, cfg.Requests, cfg.SLO = a.reg, a.flight, a.reqs, a.slo
	}
	return serve.New(cfg)
}

func machine(modules int) costmodel.Machine {
	m := costmodel.UPMEMServer()
	m.PIMModules = modules
	return m
}

// stageNanos is one request's stage decomposition, index-aligned with
// serve.StageNames.
type stageNanos = [serve.NumStages]int64

func stopEngine(e *serve.Engine) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = e.Shutdown(ctx) // past the deadline pending requests fail with ErrDrainDeadline and are counted
}

// stageRows writes the engine's per-stage latency rows from the stage
// decompositions the responses carried.
func stageRows(stages []stageNanos, out map[string]float64) {
	if len(stages) == 0 {
		return
	}
	col := make([]int64, len(stages))
	for s, name := range serve.StageNames {
		for i := range stages {
			col[i] = stages[i][s]
		}
		out["serve.stage_ms_p50."+name] = quantileInt64(col, 0.50) / 1e6
		switch name {
		case "queue", "fence", "exec":
			out["serve.stage_ms_p95."+name] = quantileInt64(col, 0.95) / 1e6
		}
	}
}

// tailRows writes the latency percentiles too noisy for an end-to-end bound.
func tailRows(r *region, out map[string]float64) {
	lat := make([]int64, 0, len(r.samples))
	for _, s := range r.samples {
		if s.ok {
			lat = append(lat, s.latNs)
		}
	}
	out["serve.lat_p99_ms"] = quantileInt64(lat, 0.99) / 1e6
	out["serve.lat_p999_ms"] = quantileInt64(lat, 0.999) / 1e6
	out["serve.shed_ratio"] = float64(r.shed) / float64(len(r.samples))
	if r.epochs > 0 {
		out["serve.req_per_epoch"] = float64(len(r.samples)) / float64(r.epochs)
		out["serve.epochs_per_s"] = float64(r.epochs) / r.wall
	}
}

// stageSpans lays one request's stage decomposition under a serve.request
// span of exactly their summed length, ending where the client saw the
// answer minus half of what the client saw beyond the engine's total.
func stageSpans(tr *tracer, parent int32, rid int64, start, end int64, st stageNanos, lane int32) {
	total := sumStages(st)
	at := start + max(0, (end-start-total)/2)
	id := tr.add("serve.request", at, at+total, parent, rid, 0, lane)
	for s, ns := range st {
		tr.add("serve.stage."+serve.StageNames[s], at, at+ns, id, rid, 0, lane)
		at += ns
	}
}

func sumStages(st stageNanos) (total int64) {
	for _, ns := range st {
		total += ns
	}
	return total
}

// knnShape checks what can be said of a kNN answer without the oracle: one
// list of k neighbours in ascending distance.
func knnShape(nb [][]core.Neighbor, queries, k int) bool {
	if len(nb) != queries {
		return false
	}
	for _, list := range nb {
		if len(list) != k {
			return false
		}
		for i := 1; i < len(list); i++ {
			if list[i].Dist < list[i-1].Dist {
				return false
			}
		}
	}
	return true
}

func sameBools(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// -------------------------------------------------------------- serve-mixed

const (
	mixedRate      = 1500.0 // requests per second, Poisson
	mixedLimit     = 150 * time.Millisecond
	mixedK         = 8
	mixedSeedStock = 400 // insert batches applied before the engine starts, so deletes have stock
	mixedBatch     = 4   // points per insert or delete
	mixedDeleteLag = 0.5 // s a batch's insert must be due before its delete may be
)

// liveBatch is an inserted batch that has not been deleted.
type liveBatch struct {
	lo  int     // index of its first point in fresh
	due float64 // when its insert was due, on the workload's running clock
}

// plannedReq is one request of the open-loop schedule.
type plannedReq struct {
	req    *serve.Request
	dueNs  int64  // from the region's start
	expect []bool // search only
}

// serveMixed is small mixed requests, one write in five, on an open-loop
// Poisson schedule against the engine over a two-shard index.
type serveMixed struct {
	c       config
	idx     *shard.Index
	backend *tracedBackend // traced runs only
	eng     *serve.Engine
	arm     *armed

	base        []geom.Point
	absent      []geom.Point
	absentFound []bool // the index's own answer before any request, spot-checked by the oracle
	knnQ        []geom.Point
	boxes       []geom.Box
	boxHalf     uint32
	fresh       []geom.Point
	freshNext   int
	live        []liveBatch // FIFO
	clock       float64     // s scheduled so far, over all regions
	rng         *rand.Rand

	faults
	rec     *layerRec
	stopped bool // the engine has been shut down
}

func (w *serveMixed) shardConfig(rec *obs.Recorder, rebalance bool) shard.Config {
	return shard.Config{Trees: 2, Dims: dims, Machine: machine(512), Tuning: core.ThroughputOptimized,
		Obs: rec, LoadStats: rec != nil, Rebalance: rebalance}
}

func (w *serveMixed) warmSeconds() float64 { return w.c.seconds * 0.075 }

func (w *serveMixed) prepare(st *setupTimes) error {
	c := w.c
	w.rng = rand.New(rand.NewSource(c.seed))
	t0 := time.Now()
	w.base = workload.OSMLike(dataSeed, scaled(400_000, c.scale, 4000), dims)
	// The pools requests draw from are fixed with the data; the seed
	// decides the arrival times, the operation mix, which pool entries each
	// request carries, and the points inserted.
	fixed := rand.New(rand.NewSource(dataSeed))
	pool := scaled(16384, c.scale, 256)
	w.absent = perturbedOf(fixed, w.base, pool)
	knnCandidates := perturbedOf(fixed, w.base, pool/4)
	w.boxHalf = calibratedHalf(dataSeed+1, w.base, 32)
	w.boxes = boxesAround(sampleOf(fixed, w.base, pool/4), w.boxHalf)
	total := w.warmSeconds() + c.seconds
	batches := mixedSeedStock + int(mixedRate*total*0.2) + 64
	w.fresh = w.freshPoints(batches * mixedBatch)
	st.gen = time.Since(t0).Seconds()

	t0 = time.Now()
	w.arm = arm()
	w.idx = shard.New(w.shardConfig(w.arm.rec, false), w.base)
	w.idx.SetFanoutCapture(true)
	seed := w.fresh[:mixedSeedStock*mixedBatch]
	w.idx.InsertBatch(seed)
	for b := 0; b < mixedSeedStock; b++ {
		w.live = append(w.live, liveBatch{lo: b * mixedBatch, due: -1e9})
	}
	w.freshNext = len(seed)
	w.absentFound = w.idx.SearchBatch(w.absent)
	w.knnQ = denseQueries(w.idx.KNNBatch(knnCandidates, mixedK), knnCandidates)
	st.build = time.Since(t0).Seconds()

	var backend serve.Backend = w.idx
	if c.trace {
		w.backend = &tracedBackend{inner: w.idx}
		backend = w.backend
	}
	w.eng = w.arm.engine(backend)
	if _, err := w.drive(w.warmSeconds(), nil); err != nil {
		return err
	}
	if w.wrong > 0 {
		return fmt.Errorf("serve-mixed warm-up: %d wrong answers: %v", w.wrong, w.notes)
	}
	return nil
}

// denseQueries drops the fiftieth of the kNN candidates whose k-th neighbour
// is farthest. Those are isolated points whose candidate sphere sweeps a
// whole dense cluster: one such query moves a megabyte where the median
// moves a kilobyte, so the few thousand single-query requests of a run would
// report mostly how many of them they drew. tree-read and wire-read keep
// them, and run through their whole pools so that every run pays for all.
func denseQueries(answers [][]core.Neighbor, candidates []geom.Point) []geom.Point {
	reach := make([]uint64, len(candidates))
	for i, nb := range answers {
		if len(nb) > 0 {
			reach[i] = nb[len(nb)-1].Dist
		}
	}
	sorted := append([]uint64(nil), reach...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	cut := sorted[len(sorted)*49/50]
	var keep []geom.Point
	for i, p := range candidates {
		if reach[i] < cut {
			keep = append(keep, p)
		}
	}
	return keep
}

// freshPoints returns the n points the run inserts, in the seed's order;
// none is a point a search for an absent point could hit.
func (w *serveMixed) freshPoints(n int) []geom.Point {
	taken := make(map[geom.Point]bool, len(w.absent))
	for _, p := range w.absent {
		taken[p] = true
	}
	pts := workload.CosmosLike(dataSeed+2, n, dims)
	for i := range pts {
		for taken[pts[i]] {
			pts[i] = perturb(w.rng, pts[i])
		}
	}
	w.rng.Shuffle(n, func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	return pts
}

// plan draws the schedule of one region from the workload's generator.
func (w *serveMixed) plan(seconds float64) []plannedReq {
	var out []plannedReq
	for t := w.rng.ExpFloat64() / mixedRate; t < seconds; t += w.rng.ExpFloat64() / mixedRate {
		p := plannedReq{dueNs: int64(t * 1e9)}
		now := w.clock + t
		roll := w.rng.Intn(10)
		if roll == 9 && (len(w.live) == 0 || w.live[0].due > now-mixedDeleteLag) {
			roll = 8 // nothing old enough to delete: insert
		}
		if roll == 8 && w.freshNext+mixedBatch > len(w.fresh) {
			roll = 0 // out of fresh points: search
		}
		switch {
		case roll < 5: // 50% search of 1-8 points, stored and absent mixed
			n := 1 + w.rng.Intn(8)
			p.req = serve.NewRequest(serve.OpSearch)
			for i := 0; i < n; i++ {
				if w.rng.Intn(2) == 0 {
					p.req.Pts = append(p.req.Pts, w.base[w.rng.Intn(len(w.base))])
					p.expect = append(p.expect, true)
				} else {
					j := w.rng.Intn(len(w.absent))
					p.req.Pts = append(p.req.Pts, w.absent[j])
					p.expect = append(p.expect, w.absentFound[j])
				}
			}
		case roll < 7: // 20% kNN
			p.req = serve.NewRequest(serve.OpKNN)
			p.req.K = mixedK
			p.req.Pts = []geom.Point{w.knnQ[w.rng.Intn(len(w.knnQ))]}
		case roll < 8: // 10% box count
			p.req = serve.NewRequest(serve.OpBox)
			p.req.Boxes = []geom.Box{w.boxes[w.rng.Intn(len(w.boxes))]}
		case roll == 8: // 10% insert
			p.req = serve.NewRequest(serve.OpInsert)
			p.req.Pts = w.fresh[w.freshNext : w.freshNext+mixedBatch]
			w.live = append(w.live, liveBatch{lo: w.freshNext, due: now})
			w.freshNext += mixedBatch
		default: // 10% delete of the oldest live batch
			p.req = serve.NewRequest(serve.OpDelete)
			p.req.Pts = w.fresh[w.live[0].lo : w.live[0].lo+mixedBatch]
			w.live = w.live[1:]
		}
		p.req.ID = uint64(len(out) + 1)
		out = append(out, p)
	}
	w.clock += seconds
	return out
}

// answerOK checks one response as far as the schedule alone allows.
func (w *serveMixed) answerOK(p *plannedReq) bool {
	r := &p.req.Resp
	if r.Err != nil {
		return false
	}
	switch p.req.Op {
	case serve.OpSearch:
		return sameBools(r.Found, p.expect)
	case serve.OpKNN:
		return knnShape(r.Neighbors, 1, mixedK)
	case serve.OpBox:
		return len(r.Counts) == 1 && r.Counts[0] >= 1 // the box is centred on a stored point
	default:
		return r.Applied == mixedBatch
	}
}

// drive plays one region of the schedule: one goroutine submits each request
// when it is due, whether or not earlier ones were answered, and this one
// collects the answers. The warm-up is a region like any other whose result
// is dropped.
func (w *serveMixed) drive(seconds float64, tr *tracer) (*region, error) {
	plan := w.plan(seconds)
	r := &region{modules: 512, limit: mixedLimit, planned: len(plan),
		samples: make([]sample, 0, len(plan)), stages: make([]stageNanos, 0, len(plan))}
	dur := time.Duration(seconds * float64(time.Second))
	late := make([]int64, len(plan))
	errs := make([]error, len(plan))
	sent := make(chan int, len(plan)) // one send per request: the issuer never blocks on the collector
	epochs0 := w.eng.Stats().EpochsRun

	m := meter{modeled: w.idx.Metrics}
	m.begin()
	start := time.Now()
	var issuer sync.WaitGroup
	issuer.Add(1)
	go func() {
		defer issuer.Done()
		defer close(sent)
		for i := range plan {
			due := start.Add(time.Duration(plan[i].dueNs))
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			now := time.Now()
			if now.Sub(start) > dur+250*time.Millisecond {
				return // hopelessly behind: the rest counts against achieved_ratio
			}
			late[i] = int64(now.Sub(due))
			errs[i] = w.eng.Submit(plan[i].req)
			sent <- i
		}
	}()
	var traceBase int64
	if tr != nil {
		traceBase = int64(start.Sub(tr.t0))
	}
	for i := range sent {
		p := &plan[i]
		ok := false
		var st stageNanos
		if errs[i] == nil {
			<-p.req.Done()
			st = p.req.Resp.StageNanos
			ok = w.answerOK(p)
			r.stages = append(r.stages, st)
		} else {
			r.shed++
		}
		if !ok {
			w.fail("request %d (%v): submit error %v, response error %v, or a wrong answer", i, p.req.Op, errs[i], p.req.Resp.Err)
		}
		// Latency runs from the instant the request was due: the wait
		// for a late generator is the system's fault only if the system
		// made it late, and the validity limits catch the other case.
		lat := late[i] + sumStages(st)
		seg := min(int(p.dueNs*nSeg/int64(dur)), nSeg-1)
		ops := len(p.req.Pts) + len(p.req.Boxes)
		r.samples = append(r.samples, sample{seg: int32(seg), ops: int32(ops), latNs: lat, ok: ok})
		r.lateNs = append(r.lateNs, late[i])
		if tr != nil && errs[i] == nil {
			due := traceBase + p.dueNs
			id := tr.add("request."+p.req.Op.String(), due, due+lat, 0, int64(i), ops, 100+int32(i%16))
			stageSpans(tr, id, int64(i), due+late[i], due+lat, st, 100+int32(i%16))
		}
	}
	issuer.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := w.eng.Barrier(ctx); err != nil {
		return nil, fmt.Errorf("serve-mixed: barrier: %w", err)
	}
	m.end(r)
	for i := range r.segWall {
		r.segWall[i] = seconds / nSeg
	}
	r.epochs = w.eng.Stats().EpochsRun - epochs0
	return r, nil
}

func (w *serveMixed) measure(frac float64, tr *tracer) (*region, error) {
	w.rec = nil
	if tr != nil {
		w.rec = &layerRec{tr: tr, prefix: "shard", modeled: w.idx.Metrics, fanout: w.idx.TakeFanout}
	}
	if w.backend != nil {
		w.backend.rec.Store(w.rec)
		defer w.backend.rec.Store(nil)
	}
	return w.drive(w.c.seconds*frac, tr)
}

func (w *serveMixed) layers(tr *tracer, r *region, out map[string]float64) error {
	w.rec.metrics(out)
	w.rec.batchOpsMean(out)
	stageRows(r.stages, out)
	tailRows(r, out)
	out["loadgen.late_p99_ms"] = quantileInt64(r.lateNs, 0.99) / 1e6
	out["loadgen.late_max_ms"] = quantileInt64(r.lateNs, 1) / 1e6
	out["loadgen.achieved_ratio"] = r.achievedRatio()

	var host hostProbe
	for i := 0; i < 4; i++ {
		host.run(tr, w.knnQ, int64(i))
	}
	host.metrics(out)

	// The remaining probes drive the index directly, so the engine stops.
	stopEngine(w.eng)
	w.stopped = true
	spare := w.fresh[len(w.fresh)-mixedBatch:]
	fixedCosts(tr, w.knnQ[0], spare, mixedK,
		func(p []geom.Point) { w.idx.SearchBatch(p) },
		func(p []geom.Point, k int) { w.idx.KNNBatch(p, k) },
		w.idx.InsertBatch, w.idx.DeleteBatch, out)
	w.rebalanceProbe(tr, out)
	return nil
}

// rebalanceProbe replays epochs of the same mix, closed loop and with fixed
// contents, against a second index that has rebalancing on, and counts what
// the rebalancer did. The main region keeps rebalancing off because its
// repartitions made the sizing runs' p95 swing by a fifth; here they are
// counted where they repeat exactly.
func (w *serveMixed) rebalanceProbe(tr *tracer, out map[string]float64) {
	rng := rand.New(rand.NewSource(w.c.seed + 5))
	epochs := scaled(200, w.c.scale, 8)
	const perEpoch = 8 // points per insert and per delete batch
	fresh := workload.CosmosLike(w.c.seed+6, (epochs+churnLag)*perEpoch, dims)
	x := shard.New(w.shardConfig(nil, true), w.base)
	id := tr.open("probe.rebalance", 0, 0, 0)
	for e := 0; e < epochs+churnLag; e++ {
		x.SearchBatch(sampleOf(rng, w.base, 48))
		x.KNNBatch(sampleOf(rng, w.knnQ, 3), mixedK)
		x.BoxCountBatch([]geom.Box{w.boxes[rng.Intn(len(w.boxes))], w.boxes[rng.Intn(len(w.boxes))]})
		x.InsertBatch(fresh[e*perEpoch : (e+1)*perEpoch])
		if e >= churnLag {
			x.DeleteBatch(fresh[(e-churnLag)*perEpoch : (e-churnLag+1)*perEpoch])
		}
	}
	tr.close(id, 0)
	out["shard.rebalances"] = float64(x.Rebalances())
	out["shard.migrated_points"] = float64(x.MigratedPoints())
}

func (w *serveMixed) verify() (int, int, []string) {
	wrong, notes := w.wrong, w.notes
	eng := w.eng
	if w.stopped { // the traced run stopped it for its probes
		eng = (*armed)(nil).engine(w.idx)
		defer stopEngine(eng)
	}
	if v := w.eng.FenceViolations(); v != 0 {
		wrong++
		notes = append(notes, fmt.Sprintf("%d fence violations", v))
	}
	// The benchmark's own model of the contents: the base points plus
	// every inserted batch not yet deleted.
	stored := append([]geom.Point(nil), w.base...)
	for _, b := range w.live {
		stored = append(stored, w.fresh[b.lo:b.lo+mixedBatch]...)
	}
	if w.idx.Size() != len(stored) {
		wrong++
		notes = append(notes, fmt.Sprintf("Size() = %d, want %d", w.idx.Size(), len(stored)))
	}
	rng := rand.New(rand.NewSource(w.c.seed + 3))
	search := append(sampleOf(rng, stored[len(w.base):], 2*oracleSample), w.absent...)
	search = append(search, w.fresh[:mixedSeedStock]...) // deleted long ago, unless the schedule was short
	oq := pickOracleQueries(rng, search, w.knnQ, mixedK, w.boxes)
	got, err := engineAnswers(eng, oq)
	if err != nil {
		return 1, wrong + 1, append(notes, err.Error())
	}
	checked, bad, more := bruteForce(stored, oq).compare(got)
	return checked + 2, wrong + bad, append(notes, more...)
}

// engineAnswers asks the oracle's queries through the engine.
func engineAnswers(e *serve.Engine, oq oracleQueries) (answers, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s, k, b := serve.NewRequest(serve.OpSearch), serve.NewRequest(serve.OpKNN), serve.NewRequest(serve.OpBox)
	s.Pts, k.Pts, k.K, b.Boxes = oq.search, oq.knn, oq.k, oq.boxes
	for _, r := range []*serve.Request{s, k, b} {
		if err := e.Do(ctx, r); err != nil {
			return answers{}, fmt.Errorf("oracle query through the engine: %w", err)
		}
	}
	return answers{found: s.Resp.Found, nbrs: k.Resp.Neighbors, counts: b.Resp.Counts}, nil
}

func (w *serveMixed) close() {
	if w.eng != nil && !w.stopped {
		stopEngine(w.eng)
		w.stopped = true
	}
}

// ---------------------------------------------------------------- wire-read

const (
	wireLimit      = 10 * time.Millisecond
	wireSearchPts  = 128
	wireKNNPts     = 16
	wireK          = 16
	wireSpecs      = 4096 // distinct requests, cycled
	wireWarmup     = 2000 // requests before the measured region
	wireLadderReqs = 2000 // requests replayed at each rung of the ladder
)

// wireSpec is one pre-generated read request.
type wireSpec struct {
	op     serve.Op
	pts    []geom.Point
	k      int
	expect []bool // search: even indexes stored, odd as the tree answered before any request
}

func (s *wireSpec) request(id uint64) *serve.Request {
	return &serve.Request{Op: s.op, Pts: s.pts, K: s.k, ID: id}
}

func (s *wireSpec) ok(r *serve.Response) bool {
	if r.Err != nil {
		return false
	}
	if s.op == serve.OpSearch {
		return sameBools(r.Found, s.expect)
	}
	return knnShape(r.Neighbors, len(s.pts), s.k)
}

// wireDone is one finished request on one connection.
type wireDone struct {
	startNs, latNs int64
	spec           int32
	ok             bool
	stages         stageNanos
}

// wireRead is read-only requests over the binary TCP protocol, closed loop,
// one connection per CPU.
type wireRead struct {
	c       config
	data    []geom.Point
	tree    *core.Tree
	backend *tracedBackend // traced runs only
	arm     *armed
	eng     *serve.Engine
	srv     *serve.TCPServer
	clients []*serve.Client
	specs   []wireSpec
	next    []int // per connection: next spec
	boxHalf uint32
	stopped bool // the engine has been shut down

	faults
	rec *layerRec
}

func (w *wireRead) prepare(st *setupTimes) error {
	c := w.c
	t0 := time.Now()
	w.data = workload.OSMLike(dataSeed, scaled(500_000, c.scale, 4000), dims)
	// The requests are fixed with the data and a run cycles through all of
	// them several times; the seed decides their order.
	fixed := rand.New(rand.NewSource(dataSeed))
	nSpecs := scaled(wireSpecs, c.scale, 64)
	for i := 0; i < nSpecs; i++ {
		if i%4 == 3 { // 25% kNN
			w.specs = append(w.specs, wireSpec{op: serve.OpKNN, k: wireK, pts: perturbedOf(fixed, w.data, wireKNNPts)})
			continue
		}
		stored, absent := sampleOf(fixed, w.data, wireSearchPts/2), perturbedOf(fixed, w.data, wireSearchPts/2)
		s := wireSpec{op: serve.OpSearch}
		for j := range stored {
			s.pts = append(s.pts, stored[j], absent[j])
		}
		w.specs = append(w.specs, s)
	}
	rand.New(rand.NewSource(c.seed)).Shuffle(len(w.specs), func(i, j int) { w.specs[i], w.specs[j] = w.specs[j], w.specs[i] })
	w.boxHalf = calibratedHalf(dataSeed+1, w.data, 32)
	st.gen = time.Since(t0).Seconds()

	t0 = time.Now()
	w.arm = arm()
	w.tree = core.New(core.Config{Dims: dims, Machine: machine(512), Tuning: core.ThroughputOptimized,
		Obs: w.arm.rec, LoadStats: true}, w.data)
	st.build = time.Since(t0).Seconds()

	var backend serve.Backend = serve.NewTreeBackend(w.tree)
	for i := range w.specs {
		if s := &w.specs[i]; s.op == serve.OpSearch {
			s.expect = backend.SearchBatch(s.pts)
			for j := 0; j < len(s.expect); j += 2 {
				if !s.expect[j] {
					return fmt.Errorf("wire-read: stored point not found before serving")
				}
			}
		}
	}
	if c.trace {
		w.backend = &tracedBackend{inner: backend}
		backend = w.backend
	}
	w.eng = w.arm.engine(backend)
	srv, err := serve.ServeTCP("127.0.0.1:0", w.eng)
	if err != nil {
		return fmt.Errorf("wire-read: %w", err)
	}
	w.srv = srv
	for i := 0; i < runtime.NumCPU(); i++ {
		cl, err := serve.DialTCP(srv.Addr(), dims)
		if err != nil {
			return fmt.Errorf("wire-read: %w", err)
		}
		w.clients = append(w.clients, cl)
	}
	w.next = make([]int, len(w.clients))
	for i := range w.next {
		w.next[i] = i
	}
	warm := scaled(wireWarmup, c.scale, 64) / len(w.clients)
	if _, err := w.loop(0, warm, nil); err != nil {
		return err
	}
	if w.wrong > 0 {
		return fmt.Errorf("wire-read warm-up: %d wrong answers: %v", w.wrong, w.notes)
	}
	return nil
}

// loop runs every connection closed loop, for dur or (when count > 0) for
// count requests each, and returns what each connection finished.
func (w *wireRead) loop(dur time.Duration, count int, tr *tracer) ([][]wireDone, error) {
	done := make([][]wireDone, len(w.clients))
	errs := make([]error, len(w.clients))
	capacity := count
	if count == 0 {
		capacity = int(dur.Seconds()*5000) + 1024 // a connection finishes ~2 500 requests a second on the sizing box
	}
	for c := range done {
		done[c] = make([]wireDone, 0, capacity)
	}
	start := time.Now()
	var traceBase int64
	if tr != nil {
		traceBase = int64(start.Sub(tr.t0))
	}
	var wg sync.WaitGroup
	for c, cl := range w.clients {
		wg.Add(1)
		go func(c int, cl *serve.Client) {
			defer wg.Done()
			for n := 0; ; n++ {
				at := time.Since(start)
				if (count > 0 && n >= count) || (count == 0 && at >= dur) {
					return
				}
				i := w.next[c] % len(w.specs)
				w.next[c] += len(w.clients)
				spec := &w.specs[i]
				req := spec.request(uint64(c)<<32 | uint64(n+1))
				err := cl.Do(req)
				lat := time.Since(start) - at
				if engineSaid := new(serve.WireError); err != nil && !errors.As(err, &engineSaid) {
					errs[c] = fmt.Errorf("wire-read: connection %d: %w", c, err)
					return // a transport error poisons the connection
				}
				d := wireDone{startNs: int64(at), latNs: int64(lat), spec: int32(i), ok: spec.ok(&req.Resp), stages: req.Resp.StageNanos}
				done[c] = append(done[c], d)
				if tr != nil {
					rid := int64(req.ID)
					id := tr.add("wire.request."+spec.op.String(), traceBase+d.startNs, traceBase+d.startNs+d.latNs, 0, rid, len(spec.pts), 100+int32(c))
					stageSpans(tr, id, rid, traceBase+d.startNs, traceBase+d.startNs+d.latNs, d.stages, 100+int32(c))
				}
			}
		}(c, cl)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for c := range done {
		for _, d := range done[c] {
			if !d.ok {
				w.fail("connection %d: request of spec %d failed or was answered wrongly", c, d.spec)
			}
		}
	}
	return done, nil
}

func (w *wireRead) measure(frac float64, tr *tracer) (*region, error) {
	w.rec = nil
	if tr != nil {
		w.rec = &layerRec{tr: tr, prefix: "core", modeled: w.tree.System().Metrics}
	}
	if w.backend != nil {
		w.backend.rec.Store(w.rec)
		defer w.backend.rec.Store(nil)
	}
	seconds := w.c.seconds * frac
	dur := time.Duration(seconds * float64(time.Second))
	r := &region{modules: w.tree.P(), limit: wireLimit}
	epochs0 := w.eng.Stats().EpochsRun
	m := meter{modeled: w.tree.System().Metrics}
	m.begin()
	done, err := w.loop(dur, 0, tr)
	if err != nil {
		return nil, err
	}
	m.end(r)
	r.epochs = w.eng.Stats().EpochsRun - epochs0
	for _, conn := range done {
		for _, d := range conn {
			// A request belongs to the segment it finished in; the few
			// that finish after the bell go to the last one.
			seg := min(int((d.startNs+d.latNs)*nSeg/int64(dur)), nSeg-1)
			r.samples = append(r.samples, sample{seg: int32(seg), ops: int32(len(w.specs[d.spec].pts)), latNs: d.latNs, ok: d.ok})
			if d.ok {
				r.stages = append(r.stages, d.stages)
			}
		}
	}
	for i := range r.segWall {
		r.segWall[i] = seconds / nSeg
	}
	return r, nil
}

func (w *wireRead) layers(tr *tracer, r *region, out map[string]float64) error {
	w.rec.metrics(out)
	w.rec.batchOpsMean(out)
	stageRows(r.stages, out)
	tailRows(r, out)
	var over float64
	okN := 0
	for _, s := range r.samples {
		if s.ok {
			over += float64(s.latNs - sumStages(r.stages[okN]))
			okN++
		}
	}
	if okN > 0 {
		out["wire.overhead_us_per_req"] = over / float64(okN) / 1e3
	}
	var host hostProbe
	for i := 0; i < 16; i++ {
		host.run(tr, w.specs[4*i].pts, int64(i))
	}
	host.metrics(out)
	if err := w.ladder(tr, out); err != nil {
		return err
	}
	// Last, because it writes: the fixed costs of a batch on this tree.
	w.shutdown()
	fresh := workload.CosmosLike(w.c.seed+2, 4, dims)
	treeFixedCosts(tr, w.tree, w.specs[3].pts[0], fresh, out)
	return nil
}

func (w *wireRead) verify() (int, int, []string) {
	rng := rand.New(rand.NewSource(w.c.seed + 3))
	var search, knn []geom.Point
	for _, s := range w.specs {
		if s.op == serve.OpSearch {
			search = append(search, s.pts...)
		} else {
			knn = append(knn, s.pts...)
		}
	}
	oq := pickOracleQueries(rng, search, knn, wireK, boxesAround(sampleOf(rng, w.data, 4*oracleSample), w.boxHalf))
	want := bruteForce(w.tree.Points(), oq)
	var got answers
	if len(w.clients) > 0 { // through the wire while it is up
		s := &serve.Request{Op: serve.OpSearch, Pts: oq.search, ID: 1}
		k := &serve.Request{Op: serve.OpKNN, Pts: oq.knn, K: oq.k, ID: 2}
		b := &serve.Request{Op: serve.OpBox, Boxes: oq.boxes, ID: 3}
		for _, r := range []*serve.Request{s, k, b} {
			if err := w.clients[0].Do(r); err != nil {
				return 1, w.wrong + 1, append(w.notes, fmt.Sprintf("oracle query over the wire: %v", err))
			}
		}
		got = answers{found: s.Resp.Found, nbrs: k.Resp.Neighbors, counts: b.Resp.Counts}
	} else { // the traced run has shut the server down for its probes
		b := serve.NewTreeBackend(w.tree)
		got = answers{found: b.SearchBatch(oq.search), nbrs: b.KNNBatch(oq.knn, oq.k), counts: b.BoxCountBatch(oq.boxes)}
	}
	checked, bad, more := want.compare(got)
	wrong, notes := w.wrong+bad, append(w.notes, more...)
	if w.eng != nil {
		if v := w.eng.FenceViolations(); v != 0 {
			wrong++
			notes = append(notes, fmt.Sprintf("%d fence violations", v))
		}
	}
	return checked + 1, wrong, notes
}

// shutdown closes the connections, drains the engine and stops the server,
// waiting for each.
func (w *wireRead) shutdown() {
	for _, cl := range w.clients {
		cl.Close()
	}
	w.clients = nil
	if w.eng != nil && !w.stopped {
		stopEngine(w.eng)
		w.stopped = true
	}
	if w.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = w.srv.Shutdown(ctx) // past the deadline it force-closes, which is all that is left to do
		cancel()
		w.srv = nil
	}
}

func (w *wireRead) close() { w.shutdown() }
