package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pimzdtree/internal/core"
	"pimzdtree/internal/costmodel"
	"pimzdtree/internal/geom"
	"pimzdtree/internal/metrics"
	"pimzdtree/internal/workload"
)

func testTree(t testing.TB, n int) (*core.Tree, []geom.Point) {
	t.Helper()
	m := costmodel.UPMEMServer()
	m.PIMModules = 64
	data := workload.Uniform(42, n, 3)
	tr := core.New(core.Config{Dims: 3, Machine: m, Tuning: core.ThroughputOptimized}, data)
	return tr, data
}

func testEngine(t testing.TB, n int) (*Engine, []geom.Point) {
	t.Helper()
	tr, data := testTree(t, n)
	e := New(Config{Backend: NewTreeBackend(tr)})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		e.Shutdown(ctx)
	})
	return e, data
}

func mustDo(t *testing.T, e *Engine, r *Request) *Response {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.Do(ctx, r); err != nil {
		t.Fatalf("%s: %v", r.Op, err)
	}
	return &r.Resp
}

func searchReq(pts ...geom.Point) *Request {
	r := NewRequest(OpSearch)
	r.Pts = pts
	return r
}

func TestEngineBasicOps(t *testing.T) {
	e, data := testEngine(t, 5000)

	resp := mustDo(t, e, searchReq(data[0], data[1]))
	if !resp.Found[0] || !resp.Found[1] {
		t.Fatalf("stored points not found: %v", resp.Found)
	}

	absent := geom.Point{Dims: 3}
	absent.Coords = [4]uint32{0xdeadbeef, 0xfeedface, 0x12345678, 0}
	ins := NewRequest(OpInsert)
	ins.Pts = []geom.Point{absent}
	if got := mustDo(t, e, ins); got.Applied != 1 {
		t.Fatalf("insert applied %d", got.Applied)
	}
	if resp := mustDo(t, e, searchReq(absent)); !resp.Found[0] {
		t.Fatal("inserted point not visible to later search")
	}

	knn := NewRequest(OpKNN)
	knn.Pts = []geom.Point{data[10]}
	knn.K = 3
	nresp := mustDo(t, e, knn)
	if len(nresp.Neighbors) != 1 || len(nresp.Neighbors[0]) != 3 {
		t.Fatalf("knn shape: %d lists", len(nresp.Neighbors))
	}
	if nresp.Neighbors[0][0].Dist != 0 {
		t.Fatalf("nearest neighbor of a stored point should be itself, dist=%d", nresp.Neighbors[0][0].Dist)
	}

	boxes := workload.QueryBoxes(7, data, 4, 32)
	breq := NewRequest(OpBox)
	breq.Boxes = boxes
	bresp := mustDo(t, e, breq)
	if len(bresp.Counts) != len(boxes) {
		t.Fatalf("box counts: %d", len(bresp.Counts))
	}

	del := NewRequest(OpDelete)
	del.Pts = []geom.Point{absent}
	mustDo(t, e, del)
	if resp := mustDo(t, e, searchReq(absent)); resp.Found[0] {
		t.Fatal("deleted point still visible")
	}
}

func TestEngineEpochVisibility(t *testing.T) {
	e, _ := testEngine(t, 2000)
	p := geom.Point{Dims: 3, Coords: [4]uint32{1, 2, 3, 0}}

	before := mustDo(t, e, searchReq(p)).Epoch
	ins := NewRequest(OpInsert)
	ins.Pts = []geom.Point{p}
	upd := mustDo(t, e, ins).Epoch
	if upd <= before {
		t.Fatalf("update epoch %d not after read epoch %d", upd, before)
	}
	after := mustDo(t, e, searchReq(p))
	if !after.Found[0] {
		t.Fatal("insert not visible to next epoch read")
	}
	if after.Epoch < upd {
		t.Fatalf("later read epoch %d before update epoch %d", after.Epoch, upd)
	}
}

func TestEngineValidation(t *testing.T) {
	e, data := testEngine(t, 1000)
	cases := []*Request{
		NewRequest(OpSearch), // empty batch
		func() *Request {
			r := NewRequest(OpSearch)
			r.Pts = []geom.Point{{Dims: 2}} // wrong dims
			return r
		}(),
		func() *Request {
			r := NewRequest(OpKNN)
			r.Pts = []geom.Point{data[0]}
			r.K = 0 // k out of range
			return r
		}(),
		func() *Request {
			r := NewRequest(OpKNN)
			r.Pts = []geom.Point{data[0]}
			r.K = 1 << 20
			return r
		}(),
		NewRequest(OpBox), // empty boxes
		func() *Request {
			r := NewRequest(OpBox)
			r.Boxes = []geom.Box{{}} // zero-dims box
			return r
		}(),
		NewRequest(Op(99)), // unknown op
	}
	for i, r := range cases {
		err := e.Submit(r)
		var bad *BadRequestError
		if !errors.As(err, &bad) {
			t.Errorf("case %d: want BadRequestError, got %v", i, err)
		}
	}
}

// gatedBackend blocks executor progress until released — it makes queue
// buildup and drain deadlines deterministic to provoke. Each backend call
// signals entered before blocking on gate.
type gatedBackend struct {
	dims    uint8
	gate    chan struct{}
	entered chan struct{}
	epoch   atomic.Uint64
}

func newGatedBackend() *gatedBackend {
	return &gatedBackend{dims: 3, gate: make(chan struct{}), entered: make(chan struct{}, 1024)}
}

func (b *gatedBackend) wait() {
	select {
	case b.entered <- struct{}{}:
	default:
	}
	<-b.gate
}

func (b *gatedBackend) Dims() uint8 { return b.dims }
func (b *gatedBackend) SearchBatch(pts []geom.Point) []bool {
	b.wait()
	return make([]bool, len(pts))
}
func (b *gatedBackend) InsertBatch(pts []geom.Point) { b.wait(); b.epoch.Add(1) }
func (b *gatedBackend) DeleteBatch(pts []geom.Point) { b.wait(); b.epoch.Add(1) }
func (b *gatedBackend) KNNBatch(pts []geom.Point, k int) [][]core.Neighbor {
	b.wait()
	return make([][]core.Neighbor, len(pts))
}
func (b *gatedBackend) BoxCountBatch(boxes []geom.Box) []int64 {
	b.wait()
	return make([]int64, len(boxes))
}
func (b *gatedBackend) Epoch() uint64 { return b.epoch.Load() }

func TestAdmissionControlSheds(t *testing.T) {
	gb := newGatedBackend()
	e := New(Config{Backend: gb, MaxQueuedOps: 8})
	defer func() {
		close(gb.gate) // release executor forever
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		e.Shutdown(ctx)
	}()

	p := geom.Point{Dims: 3}
	shed := 0
	for i := 0; i < 64; i++ {
		r := NewRequest(OpSearch)
		r.Pts = []geom.Point{p}
		if err := e.Submit(r); err != nil {
			if !errors.Is(err, ErrQueueFull) {
				t.Fatalf("submit %d: want ErrQueueFull, got %v", i, err)
			}
			shed++
		}
	}
	if shed < 64-8-1 {
		t.Fatalf("admission control admitted too much: only %d/64 shed with MaxQueuedOps=8", shed)
	}
}

func TestShutdownDrainDeadline(t *testing.T) {
	gb := newGatedBackend()
	e := New(Config{Backend: gb})

	// First request: the executor commits to a single-request epoch and
	// blocks inside the backend.
	first := NewRequest(OpSearch)
	first.Pts = []geom.Point{{Dims: 3}}
	if err := e.Submit(first); err != nil {
		t.Fatalf("submit: %v", err)
	}
	<-gb.entered

	// The rest queues behind the stuck epoch.
	var reqs []*Request
	for i := 0; i < 9; i++ {
		r := NewRequest(OpSearch)
		r.Pts = []geom.Point{{Dims: 3}}
		if err := e.Submit(r); err != nil {
			t.Fatalf("submit: %v", err)
		}
		reqs = append(reqs, r)
	}

	// Shutdown with a short deadline must not hang: after the deadline it
	// aborts, and everything still pending resolves with ErrDrainDeadline.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- e.Shutdown(ctx) }()
	for !e.aborted.Load() {
		time.Sleep(time.Millisecond)
	}
	// Release the stuck backend call; the executor hits the abort flag on
	// the next plan.
	gb.gate <- struct{}{}
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("shutdown: want DeadlineExceeded, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("shutdown hung past drain deadline")
	}

	deadlineFails := 0
	for _, r := range reqs {
		select {
		case <-r.Done():
			if errors.Is(r.Resp.Err, ErrDrainDeadline) {
				deadlineFails++
			}
		case <-time.After(time.Second):
			t.Fatal("request still pending after shutdown returned")
		}
	}
	if deadlineFails == 0 {
		t.Fatal("no request reported ErrDrainDeadline")
	}

	// Post-shutdown submissions are rejected, not queued.
	r := NewRequest(OpSearch)
	r.Pts = []geom.Point{{Dims: 3}}
	if err := e.Submit(r); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("post-shutdown submit: want ErrShuttingDown, got %v", err)
	}
}

// TestConcurrentClients hammers the engine from many goroutines with a
// mixed workload. Run under -race (make race) this is the data-race net
// for the whole intake/executor path.
func TestConcurrentClients(t *testing.T) {
	e, data := testEngine(t, 20000)

	const goroutines = 16
	const perG = 60
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				var r *Request
				switch (g + i) % 5 {
				case 0, 1:
					r = searchReq(data[(g*perG+i)%len(data)])
				case 2:
					r = NewRequest(OpInsert)
					r.Pts = []geom.Point{{Dims: 3, Coords: [4]uint32{uint32(g), uint32(i), 7, 0}}}
				case 3:
					r = NewRequest(OpDelete)
					r.Pts = []geom.Point{{Dims: 3, Coords: [4]uint32{uint32(g), uint32(i), 7, 0}}}
				default:
					r = NewRequest(OpKNN)
					r.Pts = []geom.Point{data[(g*7+i)%len(data)]}
					r.K = 1 + i%4
				}
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				err := e.Do(ctx, r)
				cancel()
				if err != nil && !errors.Is(err, ErrQueueFull) {
					errCh <- fmt.Errorf("goroutine %d op %d (%s): %w", g, i, r.Op, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if v := e.FenceViolations(); v != 0 {
		t.Fatalf("%d fence violations under concurrent load", v)
	}
}

// TestSnapshotIsolation runs readers against a continuously-updating
// engine and asserts the epoch fence never trips: every read phase ran
// against one stable published root.
func TestSnapshotIsolation(t *testing.T) {
	e, data := testEngine(t, 20000)

	stop := make(chan struct{})
	var writerErr atomic.Value
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			r := NewRequest(OpInsert)
			r.Pts = []geom.Point{{Dims: 3, Coords: [4]uint32{uint32(i), uint32(i * 3), 99, 0}}}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			err := e.Do(ctx, r)
			cancel()
			if err != nil && !errors.Is(err, ErrQueueFull) {
				writerErr.Store(err)
				return
			}
			i++
		}
	}()

	for i := 0; i < 200; i++ {
		r := searchReq(data[i%len(data)], data[(i*31)%len(data)])
		resp := mustDo(t, e, r)
		// Stored build points survive pure-insert churn: a torn snapshot
		// would be visible as a lost point here.
		if !resp.Found[0] || !resp.Found[1] {
			t.Fatalf("read %d lost stored points: %v (epoch %d)", i, resp.Found, resp.Epoch)
		}
	}
	close(stop)
	wg.Wait()
	if err := writerErr.Load(); err != nil {
		t.Fatalf("writer: %v", err)
	}
	if v := e.FenceViolations(); v != 0 {
		t.Fatalf("%d fence violations: read phase observed a root swap", v)
	}
}

// TestBarrierOrdersAllPriorWork: a barrier completes only after every
// request its caller submitted before it, at an epoch no earlier than
// theirs, while several callers submit and cut barriers at once. And a
// drain hands over each submitter's requests in Submit order, which
// Replay's pairing of drained requests with their arrival times needs.
func TestBarrierOrdersAllPriorWork(t *testing.T) {
	const submitters, rounds, perRound = 4, 5, 10
	insert := func(g, i int) *Request {
		r := NewRequest(OpInsert)
		r.Pts = []geom.Point{{Dims: 3, Coords: [4]uint32{uint32(g), uint32(i), 5, 0}}}
		return r
	}
	// concurrently runs submit(g) on every submitter at once.
	concurrently := func(submit func(g int)) {
		var wg sync.WaitGroup
		for g := 0; g < submitters; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				submit(g)
			}()
		}
		wg.Wait()
	}

	e, _ := testEngine(t, 2000)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	concurrently(func(g int) {
		for round := 0; round < rounds; round++ {
			var reqs []*Request
			for i := 0; i < perRound; i++ {
				r := insert(g, round*perRound+i)
				if err := e.Submit(r); err != nil {
					t.Errorf("submitter %d: submit: %v", g, err)
					return
				}
				reqs = append(reqs, r)
			}
			barrier := NewRequest(opBarrier)
			if err := e.Do(ctx, barrier); err != nil {
				t.Errorf("submitter %d: barrier: %v", g, err)
				return
			}
			for i, r := range reqs {
				select {
				case <-r.Done():
				default:
					t.Errorf("submitter %d round %d: request %d not complete when its barrier returned", g, round, i)
					return
				}
				// Every update batch publishes a new epoch: an insert
				// applied after the barrier's epoch would report a later one.
				if r.Resp.Epoch > barrier.Resp.Epoch {
					t.Errorf("submitter %d round %d: barrier completed at epoch %d, before request %d (epoch %d)",
						g, round, barrier.Resp.Epoch, i, r.Resp.Epoch)
				}
			}
		}
	})

	// No executor: one drain takes everything the submitters pushed.
	tr, _ := testTree(t, 100)
	e = newEngine(Config{Backend: NewTreeBackend(tr)})
	concurrently(func(g int) {
		for i := 0; i < rounds*perRound; i++ {
			if err := e.Submit(insert(g, i)); err != nil {
				t.Errorf("submitter %d: submit: %v", g, err)
				return
			}
		}
	})
	next := make([]uint32, submitters)
	for _, r := range e.in.drain(nil) {
		g, i := r.Pts[0].Coords[0], r.Pts[0].Coords[1]
		if i != next[g] {
			t.Fatalf("submitter %d: drained request %d where %d was next", g, i, next[g])
		}
		next[g]++
	}
	for g, n := range next {
		if n != rounds*perRound {
			t.Errorf("submitter %d: drained %d requests, want %d", g, n, rounds*perRound)
		}
	}
}

// waitDone waits for r to complete, failing the test after 10 s.
func waitDone(t *testing.T, r *Request) {
	t.Helper()
	select {
	case <-r.Done():
	case <-time.After(10 * time.Second):
		t.Fatalf("%s request never completed", r.Op)
	}
}

// intakeLen counts requests waiting in the intake.
func intakeLen(e *Engine) int {
	e.in.mu.Lock()
	defer e.in.mu.Unlock()
	return len(e.in.q)
}

// TestArrivalsDuringAnEpochShareTheNext pins the coalescing contract:
// everything that arrives while epoch E executes runs in epoch E+1, as one
// plan. The executor cannot drain while the gated backend holds it inside
// E. After each submit the test polls the intake (bounded) so that any
// drain running beside the executor would take that request on its own.
func TestArrivalsDuringAnEpochShareTheNext(t *testing.T) {
	gb := newGatedBackend()
	e := New(Config{Backend: gb})
	search := func() *Request {
		r := NewRequest(OpSearch)
		r.Pts = []geom.Point{{Dims: 3}}
		return r
	}
	first := search()
	if err := e.Submit(first); err != nil {
		t.Fatal(err)
	}
	<-gb.entered // epoch E holds the executor

	var during []*Request
	for i := 0; i < 3; i++ {
		r := search()
		if err := e.Submit(r); err != nil {
			t.Fatal(err)
		}
		during = append(during, r)
		for tries := 0; tries < 20 && intakeLen(e) > 0; tries++ {
			time.Sleep(time.Millisecond)
		}
	}
	close(gb.gate)
	waitDone(t, first)
	for _, r := range during {
		waitDone(t, r)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := e.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().EpochsRun; got != 2 {
		t.Fatalf("epochs run = %d, want 2 (E, then one epoch for all three arrivals)", got)
	}
}

// panicBackend panics inside every search batch whose 1-based ordinal is
// listed — a stand-in for a backend bug (or a corrupted tree) surfacing
// mid-epoch.
type panicBackend struct {
	Backend
	searches int
	panicOn  map[int]bool
}

func (b *panicBackend) SearchBatch(pts []geom.Point) []bool {
	b.searches++
	if b.panicOn[b.searches] {
		panic(fmt.Sprintf("injected backend panic in search batch %d", b.searches))
	}
	return b.Backend.SearchBatch(pts)
}

// TestBackendPanicIsContained: a panicking backend costs the requests of
// its epoch — failed with ErrBackendPanic (HTTP 500, a non-OK wire frame),
// their admission ops released — and nothing else: no waiter hangs, the
// next request succeeds, the panic is counted, Shutdown still drains.
func TestBackendPanicIsContained(t *testing.T) {
	tr, data := testTree(t, 2000)
	reg := metrics.New()
	e := New(Config{
		Backend:  &panicBackend{Backend: NewTreeBackend(tr), panicOn: map[int]bool{2: true, 4: true, 6: true}},
		Registry: reg,
	})

	// Search batch 1 is healthy. Batch 2 panics: the search fails, and so
	// does whatever was coalesced into the same epoch behind it (here the
	// barrier; nothing of the epoch may be left pending).
	if resp := mustDo(t, e, searchReq(data[0])); !resp.Found[0] {
		t.Fatal("healthy search lost a stored point")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.Do(ctx, searchReq(data[1])); !errors.Is(err, ErrBackendPanic) {
		t.Fatalf("search in the panicking epoch: want ErrBackendPanic, got %v", err)
	}
	if got := e.Stats().QueuedOps; got != 0 {
		t.Fatalf("admission depth %d after the failed epoch, want 0 (ops not released)", got)
	}
	if err := e.Barrier(ctx); err != nil {
		t.Fatalf("barrier after a backend panic: %v", err)
	}
	if resp := mustDo(t, e, searchReq(data[2])); !resp.Found[0] { // batch 3
		t.Fatal("engine stopped serving after a backend panic")
	}

	// HTTP: batch 4 panics -> 500 (not a retryable 503); batch 5 is fine.
	srv := httptest.NewServer(NewHTTPHandler(e))
	defer srv.Close()
	coords := [][]uint32{data[3].Coords[:3]}
	if resp, body := postJSON(t, srv.URL+"/v1/search", httpReq{Points: coords}); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("http search in the panicking epoch: %d %s, want 500", resp.StatusCode, body)
	}
	if resp, body := postJSON(t, srv.URL+"/v1/search", httpReq{Points: coords}); resp.StatusCode != http.StatusOK {
		t.Fatalf("http search after the panic: %d %s", resp.StatusCode, body)
	}

	// Wire: batch 6 panics -> a non-OK frame, the connection survives and
	// serves batch 7.
	tcp, err := ServeTCP("127.0.0.1:0", e)
	if err != nil {
		t.Fatal(err)
	}
	defer closeNow(tcp)
	cl, err := DialTCP(tcp.Addr(), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var werr *WireError
	if err := cl.Do(searchReq(data[4])); !errors.As(err, &werr) || werr.Status == wireOK {
		t.Fatalf("wire search in the panicking epoch: want a non-OK WireError, got %v", err)
	}
	r := searchReq(data[4])
	if err := cl.Do(r); err != nil || !r.Resp.Found[0] {
		t.Fatalf("wire search after the panic: err=%v found=%v", err, r.Resp.Found)
	}

	var expo bytes.Buffer
	if err := reg.WriteTextOpts(&expo, metrics.ExpoOpts{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(expo.String(), "\npimzd_backend_panics_total 3\n") {
		t.Fatalf("want pimzd_backend_panics_total 3 in:\n%s", expo.String())
	}
	expo.Reset()
	if err := reg.WriteTextOpts(&expo, metrics.ExpoOpts{ModeledOnly: true}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(expo.String(), "pimzd_backend_panics_total") {
		t.Fatal("pimzd_backend_panics_total leaked into the modeled-only exposition (must be Wall)")
	}
	if err := e.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown after backend panics: %v", err)
	}
}

// gatedInsertBackend holds its n-th InsertBatch (0-based) until gates[n]
// closes, announcing on entered that it got there, and panics in the
// second one once its gate opens.
type gatedInsertBackend struct {
	Backend
	gates   []chan struct{}
	entered chan struct{}
	inserts int
}

func (b *gatedInsertBackend) InsertBatch(pts []geom.Point) {
	i := b.inserts
	b.inserts++
	b.entered <- struct{}{}
	<-b.gates[i]
	if i == 1 {
		panic("injected backend panic in insert batch 2")
	}
	b.Backend.InsertBatch(pts)
}

// TestBackendPanicSparesAFinishedTCPRequest: a TCP connection's request
// that finished in a plan's read phase is its connection's again, which
// may reset it and queue it with its next frame before the same plan's
// update phase panics. The panic fails only the requests the plan left
// unfinished: the connection's next round trip runs in a later plan, and
// every reply on the connection answers its own request.
func TestBackendPanicSparesAFinishedTCPRequest(t *testing.T) {
	tr, data := testTree(t, 2000)
	b := &gatedInsertBackend{Backend: NewTreeBackend(tr),
		gates: []chan struct{}{make(chan struct{}), make(chan struct{})}, entered: make(chan struct{}, 2)}
	e := New(Config{Backend: b})
	tcp, err := ServeTCP("127.0.0.1:0", e)
	if err != nil {
		t.Fatal(err)
	}
	defer closeNow(tcp)
	cl, err := DialTCP(tcp.Addr(), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	waitQueued := func(n int64) {
		t.Helper()
		for e.Stats().QueuedOps != n {
			if ctx.Err() != nil {
				t.Fatalf("admission depth %d, want %d", e.Stats().QueuedOps, n)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// wireSearch runs one search on the connection in the background and
	// reports whether it found p.
	wireSearch := func(p geom.Point) <-chan error {
		res := make(chan error, 1)
		go func() {
			r := searchReq(p)
			if err := cl.Do(r); err != nil {
				res <- err
			} else if len(r.Resp.Found) != 1 || !r.Resp.Found[0] {
				res <- fmt.Errorf("found %v, want [true]", r.Resp.Found)
			} else {
				res <- nil
			}
		}()
		return res
	}
	insert := func(p geom.Point) *Request {
		r := NewRequest(OpInsert)
		r.Pts = []geom.Point{p}
		if err := e.Submit(r); err != nil {
			t.Fatal(err)
		}
		return r
	}
	fresh := geom.P3(1, 2, 3)

	// Plan 1 holds the executor in its insert while plan 2 queues: the
	// connection's first search, then an insert that will panic.
	ins1 := insert(fresh)
	<-b.entered
	first := wireSearch(data[0])
	waitQueued(2)
	ins2 := insert(fresh)
	waitQueued(3)
	close(b.gates[0])

	// Plan 2's read phase answers the search; its update phase holds.
	if err := <-first; err != nil {
		t.Fatalf("first wire search: %v", err)
	}
	<-b.entered
	// The connection's next frame reuses its request and queues it.
	second := wireSearch(data[1])
	waitQueued(2)
	close(b.gates[1])

	<-ins2.Done()
	if !errors.Is(ins2.Resp.Err, ErrBackendPanic) {
		t.Fatalf("insert in the panicking plan: want ErrBackendPanic, got %v", ins2.Resp.Err)
	}
	if err := <-second; err != nil {
		t.Fatalf("wire search queued behind the panicking plan: %v", err)
	}
	r := searchReq(data[2])
	if err := cl.Do(r); err != nil || !r.Resp.Found[0] {
		t.Fatalf("wire search after the panic: err=%v found=%v", err, r.Resp.Found)
	}
	<-ins1.Done()
	if ins1.Resp.Err != nil {
		t.Fatalf("insert before the panic: %v", ins1.Resp.Err)
	}
	if got := e.Stats().QueuedOps; got != 0 {
		t.Fatalf("admission depth %d after the round trips, want 0", got)
	}
	if err := e.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}
