package serve

import (
	"bufio"
	"bytes"
	"context"
	"math"
	"net"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"pimzdtree/internal/core"
	"pimzdtree/internal/costmodel"
	"pimzdtree/internal/geom"
	"pimzdtree/internal/metrics"
	"pimzdtree/internal/morton"
	"pimzdtree/internal/obs"
	"pimzdtree/internal/shard"
	"pimzdtree/internal/workload"
)

func testCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), 10*time.Second)
}

// slowShardBackend delays every search so exec dominates the request's
// stage decomposition — the hot-shard storm the capture stack is built
// to attribute. Embedding forwards the rest of the Backend surface plus
// TakeFanout, so the engine still sees the FanoutSource capability.
type slowShardBackend struct {
	*shard.Index
	delay time.Duration
}

func (b *slowShardBackend) SearchBatch(pts []geom.Point) []bool {
	time.Sleep(b.delay)
	return b.Index.SearchBatch(pts)
}

// TestHotShardStormAttribution drives a hot-shard storm (every query's
// Morton key lives on one shard) through the full pipeline with flight
// recording, fan-out capture, and slow-request capture on, then checks
// the slow record tells the whole story: stages sum to total wall, exec
// is the dominant stage, the offending shard appears in the fan-out
// spans, and the flight trace resolves in the flight recorder.
func TestHotShardStormAttribution(t *testing.T) {
	machine := costmodel.UPMEMServer()
	machine.PIMModules = 64
	data := workload.Uniform(42, 8000, 3)

	rec := obs.New()
	rec.SetRetainEvents(false)
	fr := obs.NewFlightRecorder(obs.FlightConfig{Ring: 256, SlowK: 8})
	rec.SetFlight(fr)

	idx := shard.New(shard.Config{
		Trees: 4, Dims: 3, Machine: machine,
		Tuning: core.ThroughputOptimized, Obs: rec,
	}, data)
	idx.SetFanoutCapture(true)

	tracer := NewRequestTracer(RequestTraceConfig{SlowK: 8})
	e := New(Config{
		Backend:  &slowShardBackend{Index: idx, delay: 2 * time.Millisecond},
		Flight:   fr,
		Requests: tracer,
	})
	defer func() {
		ctx, cancel := testCtx()
		defer cancel()
		e.Shutdown(ctx)
	}()

	// The storm: every query is one of the lowest-Morton-key points, so
	// the whole batch homes on shard 0.
	hot := append([]geom.Point(nil), data...)
	sort.Slice(hot, func(i, j int) bool {
		return morton.EncodePoint(hot[i]) < morton.EncodePoint(hot[j])
	})
	hot = hot[:8]
	// shardOf finds the shard whose key range holds p's Morton key.
	layout := idx.Stats().PerShard
	shardOf := func(p geom.Point) int {
		k := morton.EncodePoint(p)
		for s, sh := range layout {
			if sh.Lo <= k && k <= sh.Hi {
				return s
			}
		}
		return -1
	}
	hotShard := shardOf(hot[0])
	for _, p := range hot[1:] {
		if shardOf(p) != hotShard {
			t.Fatalf("hot keys span shards %d and %d; want one", hotShard, shardOf(p))
		}
	}

	const storms = 6
	for i := 0; i < storms; i++ {
		mustDo(t, e, searchReq(hot...))
	}

	dump := tracer.Snapshot()
	if dump.Observed != storms {
		t.Fatalf("observed %d requests, want %d", dump.Observed, storms)
	}
	if len(dump.Slow) == 0 {
		t.Fatal("no slow requests captured")
	}
	top := dump.Slow[0]

	// Stage decomposition sums exactly to total wall.
	var sum float64
	for _, s := range top.StageSeconds {
		if s < 0 {
			t.Fatalf("negative stage duration: %v", top.StageSeconds)
		}
		sum += s
	}
	if math.Abs(sum-top.TotalSeconds) > 1e-9 {
		t.Fatalf("stage sum %.9f != total %.9f", sum, top.TotalSeconds)
	}

	// The injected backend delay makes exec the dominant stage.
	domI := 0
	for s, v := range top.StageSeconds {
		if v > top.StageSeconds[domI] {
			domI = s
		}
	}
	if StageNames[domI] != "exec" {
		t.Fatalf("dominant stage %q (%v), want exec", StageNames[domI], top.StageSeconds)
	}

	// Fan-out breakdown names the offending shard.
	if len(top.FanSpans) == 0 {
		t.Fatal("no fan-out spans on the slow record")
	}
	costliest := top.FanSpans[0]
	for _, sp := range top.FanSpans[1:] {
		if sp.Queries > costliest.Queries {
			costliest = sp
		}
	}
	if costliest.Shard != hotShard || costliest.Queries == 0 {
		t.Fatalf("costliest span %+v, want shard %d with queries", costliest, hotShard)
	}
	if top.FanOut != 1 {
		t.Fatalf("search fan-out %d, want 1 (home-only)", top.FanOut)
	}

	// The flight trace resolves against the recorder's ring.
	if top.Trace == 0 {
		t.Fatal("slow record has no flight trace")
	}
	fd := fr.Snapshot()
	found := false
	for i := range fd.Ring {
		if fd.Ring[i].Trace == top.Trace {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("trace %d not resolvable in the flight ring", top.Trace)
	}
}

// TestObserveStagesZeroAlloc pins the acceptance bound: the finish-path
// stage observation (histograms + SLO + capture fast path) allocates
// nothing in steady state. It also pins the one request clock: a request
// served through Submit observes as pimzd_request_seconds exactly the sum
// of its stages.
func TestObserveStagesZeroAlloc(t *testing.T) {
	tr, _ := testTree(t, 2000)
	reg := metrics.New()
	slo := metrics.NewSLOTracker(metrics.SLOConfig{
		Objectives: []metrics.SLOObjective{{Op: "search", LatencySeconds: 0.05, Target: 0.99}},
		Registry:   reg,
	})
	tracer := NewRequestTracer(RequestTraceConfig{SlowK: 4})
	e := New(Config{
		Backend:  NewTreeBackend(tr),
		Registry: reg, Requests: tracer, SLO: slo,
	})
	defer func() {
		ctx, cancel := testCtx()
		defer cancel()
		e.Shutdown(ctx)
	}()

	served := mustDo(t, e, searchReq(geom.Point{Dims: 3}))
	var stages int64
	for _, ns := range served.StageNanos {
		stages += ns
	}
	var expo bytes.Buffer
	if err := reg.WriteTextOpts(&expo, metrics.ExpoOpts{}); err != nil {
		t.Fatal(err)
	}
	const sumLine = `pimzd_request_seconds_sum{op="search"} `
	var observed string
	for _, line := range strings.Split(expo.String(), "\n") {
		if v, ok := strings.CutPrefix(line, sumLine); ok {
			observed = v
		}
	}
	if want := strconv.FormatFloat(float64(stages)/1e9, 'g', -1, 64); observed != want {
		t.Fatalf("pimzd_request_seconds sum %q, want the stage sum %s (%v ns)", observed, want, served.StageNanos)
	}

	// A full slow set of hour-long requests: the measured request takes
	// the capture's compare-and-return fast path, the steady state under
	// a healthy server.
	for i := 0; i < 4; i++ {
		tracer.offer(NewRequest(OpSearch), 3600)
	}
	r := NewRequest(OpSearch)
	base := nowNanos()
	prime := func() {
		for b := 0; b < numBoundaries; b++ {
			r.ts[b] = base + int64(b)*1000
		}
	}
	prime()
	e.observeStages(r) // warm any lazy series creation
	if allocs := testing.AllocsPerRun(200, func() {
		prime()
		e.observeStages(r)
	}); allocs != 0 {
		t.Fatalf("observeStages allocates %.1f objects/run, want 0", allocs)
	}
}

// TestWireCompatOptionalID covers both directions of the optional-field
// handshake: legacy frames (no ID) decode unchanged, ID-carrying frames
// round-trip, responses grow a trailer only when the request carried an
// ID (so old clients see byte-identical responses), and a frame with
// garbage where the optional field would be is rejected.
func TestWireCompatOptionalID(t *testing.T) {
	mkReq := func(id uint64) *Request {
		r := NewRequest(OpSearch)
		r.Pts = []geom.Point{wirePoint(1, 2, 3), wirePoint(4, 5, 6)}
		r.ID = id
		return r
	}

	// Old client → new server: the legacy frame carries no trailing ID.
	legacy := encodeRequest(nil, mkReq(0), 3)
	got, err := decodeFresh(legacy)
	if err != nil {
		t.Fatalf("legacy frame rejected: %v", err)
	}
	if got.ID != 0 || len(got.Pts) != 2 {
		t.Fatalf("legacy decode: id=%d pts=%d", got.ID, len(got.Pts))
	}

	// New client → new server: the trailing u64 rides along.
	withID := encodeRequest(nil, mkReq(77), 3)
	if len(withID) != len(legacy)+8 {
		t.Fatalf("ID trailer adds %d bytes, want 8", len(withID)-len(legacy))
	}
	got, err = decodeFresh(withID)
	if err != nil {
		t.Fatalf("ID frame rejected: %v", err)
	}
	if got.ID != 77 {
		t.Fatalf("decoded ID %d, want 77", got.ID)
	}

	// Garbage in the optional field position: wrong length, rejected.
	for _, extra := range []int{1, 5, 9} {
		bad := append(append([]byte(nil), legacy...), make([]byte, extra)...)
		if _, err := decodeFresh(bad); err == nil {
			t.Fatalf("frame with %d garbage trailer bytes accepted", extra)
		}
	}

	// New server → old client: without an ID the response is the legacy
	// encoding exactly; with one it grows the fixed trailer, which an
	// old client never reads (it stops at its op's payload).
	respond := func(id uint64) []byte {
		r := mkReq(id)
		r.Resp.Found = []bool{true, false}
		r.Resp.Epoch = 3
		if id != 0 {
			r.Resp.ID = id
			for s := range r.Resp.StageNanos {
				r.Resp.StageNanos[s] = int64(s+1) * 100
			}
		}
		return encodeResponse(nil, r, 3)
	}
	plain, traced := respond(0), respond(99)
	if len(traced) != len(plain)+respTrailerLen {
		t.Fatalf("response trailer adds %d bytes, want %d", len(traced)-len(plain), respTrailerLen)
	}
	if !bytes.Equal(traced[:len(plain)], plain) {
		t.Fatal("trailered response is not a prefix-compatible extension")
	}
	var resp Response
	if err := decodeResponse(traced, 3, &resp); err != nil {
		t.Fatalf("decode trailered response: %v", err)
	}
	if resp.ID != 99 || resp.StageNanos[0] != 100 || resp.StageNanos[NumStages-1] != int64(NumStages)*100 {
		t.Fatalf("trailer round-trip: id=%d stages=%v", resp.ID, resp.StageNanos)
	}
	var legacyResp Response
	if err := decodeResponse(plain, 3, &legacyResp); err != nil {
		t.Fatalf("decode legacy response: %v", err)
	}
	if legacyResp.ID != 0 || legacyResp.StageNanos != [NumStages]int64{} {
		t.Fatalf("legacy response grew tracing fields: %+v", legacyResp)
	}
}

// TestWireGarbageOptionalFieldSurvivesConnection sends a frame whose
// optional-field region is garbage over a live TCP connection: the
// server must answer with a bad-request frame and keep the connection
// serving subsequent valid requests.
func TestWireGarbageOptionalFieldSurvivesConnection(t *testing.T) {
	e, data := testEngine(t, 4000)
	ts, err := ServeTCP("127.0.0.1:0", e)
	if err != nil {
		t.Fatalf("serve tcp: %v", err)
	}
	defer func() {
		ctx, cancel := testCtx()
		defer cancel()
		ts.Shutdown(ctx)
	}()
	conn, err := net.Dial("tcp", ts.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))

	roundTrip := func(frame []byte) *Response {
		t.Helper()
		bw := bufio.NewWriter(conn)
		if err := writeFrame(bw, frame); err != nil || bw.Flush() != nil {
			t.Fatalf("write frame: %v", err)
		}
		body, err := readFrame(conn, nil)
		if err != nil {
			t.Fatalf("read frame: %v", err)
		}
		var resp Response
		if err := decodeResponse(body, 3, &resp); err != nil {
			t.Fatalf("decode response: %v", err)
		}
		return &resp
	}

	// A well-formed search frame with 5 garbage bytes where the optional
	// request-id trailer would be: neither the legacy length nor the +8
	// ID length, so the server must shed it as a bad request.
	good := NewRequest(OpSearch)
	good.Pts = []geom.Point{data[0]}
	frame := encodeRequest(nil, good, 3)
	garbled := append(append([]byte(nil), frame...), 0xde, 0xad, 0xbe, 0xef, 0x01)
	resp := roundTrip(garbled)
	if we, ok := resp.Err.(*WireError); !ok || we.Status != wireBadRequest {
		t.Fatalf("want bad-request wire error, got %v", resp.Err)
	}

	// The connection survives: a valid ID-carrying request on the same
	// conn works and gets its ID echoed.
	after := NewRequest(OpSearch)
	after.Pts = []geom.Point{data[0]}
	after.ID = 5
	resp = roundTrip(encodeRequest(nil, after, 3))
	if resp.Err != nil {
		t.Fatalf("connection poisoned after bad frame: %v", resp.Err)
	}
	if len(resp.Found) != 1 || !resp.Found[0] {
		t.Fatalf("post-garbage search lost the stored point: %v", resp.Found)
	}
	if resp.ID != 5 {
		t.Fatalf("server echoed ID %d, want 5", resp.ID)
	}
}

// TestRequestAnalysisDeterministic renders the stage-attribution report
// repeatedly under different GOMAXPROCS: the bytes must never change
// (map iteration or sort instability would show up here).
func TestRequestAnalysisDeterministic(t *testing.T) {
	dump := &RequestDump{Format: RequestDumpFormat, Stages: StageNames[:], Observed: 64}
	for i := 0; i < 12; i++ {
		rec := RequestRecord{
			Seq:          uint64(i + 1),
			Op:           []string{"search", "knn", "box"}[i%3],
			Ops:          8 + i,
			Epoch:        uint64(i),
			Trace:        uint64(100 + i),
			TotalSeconds: float64(12-i) * 1e-3,
			FanOut:       1 + i%4,
			FanPruned:    i,
		}
		for s := 0; s < NumStages; s++ {
			rec.StageSeconds[s] = rec.TotalSeconds / float64(NumStages)
		}
		rec.FanSpans = []obs.FanoutSpan{
			{Shard: 0, Queries: 4, Cycles: 1000, Bytes: 64, WallSeconds: 2e-4},
			{Shard: int(1 + i%3), Queries: 2 + i, Cycles: 2000, Bytes: 128, WallSeconds: 5e-4},
		}
		dump.Slow = append(dump.Slow, rec)
	}

	render := func() []byte {
		var buf bytes.Buffer
		dump.WriteAnalysis(&buf, 10)
		return buf.Bytes()
	}
	want := render()
	if len(want) == 0 {
		t.Fatal("empty analysis")
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 4, 16} {
		runtime.GOMAXPROCS(procs)
		for i := 0; i < 8; i++ {
			if got := render(); !bytes.Equal(got, want) {
				t.Fatalf("GOMAXPROCS=%d run %d: analysis bytes differ", procs, i)
			}
		}
	}
}
