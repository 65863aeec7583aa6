package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"pimzdtree/internal/geom"
)

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	out.ReadFrom(resp.Body)
	return resp, out.Bytes()
}

func TestHTTPAPI(t *testing.T) {
	e, data := testEngine(t, 5000)
	srv := httptest.NewServer(NewHTTPHandler(e))
	defer srv.Close()

	coords := func(p geom.Point) []uint32 { return p.Coords[:p.Dims] }

	// Search for stored points.
	resp, body := postJSON(t, srv.URL+"/v1/search", httpReq{Points: [][]uint32{coords(data[0]), {1, 1, 1}}})
	if resp.StatusCode != 200 {
		t.Fatalf("search: %d %s", resp.StatusCode, body)
	}
	var sr httpResp
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Found) != 2 || !sr.Found[0] {
		t.Fatalf("search result: %+v", sr)
	}

	// Insert then search.
	resp, body = postJSON(t, srv.URL+"/v1/insert", httpReq{Points: [][]uint32{{123456, 654321, 111}}})
	if resp.StatusCode != 200 {
		t.Fatalf("insert: %d %s", resp.StatusCode, body)
	}
	var ir httpResp
	json.Unmarshal(body, &ir)
	if ir.Applied != 1 {
		t.Fatalf("insert applied: %+v", ir)
	}
	resp, body = postJSON(t, srv.URL+"/v1/search", httpReq{Points: [][]uint32{{123456, 654321, 111}}})
	var sr2 httpResp
	json.Unmarshal(body, &sr2)
	if !sr2.Found[0] {
		t.Fatal("inserted point not found over HTTP")
	}
	if sr2.Epoch <= sr.Epoch {
		t.Fatalf("epoch did not advance across insert: %d -> %d", sr.Epoch, sr2.Epoch)
	}

	// kNN.
	resp, body = postJSON(t, srv.URL+"/v1/knn", httpReq{Points: [][]uint32{coords(data[5])}, K: 3})
	if resp.StatusCode != 200 {
		t.Fatalf("knn: %d %s", resp.StatusCode, body)
	}
	var kr httpResp
	json.Unmarshal(body, &kr)
	if len(kr.Neighbors) != 1 || len(kr.Neighbors[0]) != 3 || kr.Neighbors[0][0].Dist != 0 {
		t.Fatalf("knn result: %+v", kr)
	}

	// Box count.
	lo, hi := coords(data[7]), coords(data[7])
	resp, body = postJSON(t, srv.URL+"/v1/box", httpReq{Boxes: []httpBox{{Lo: lo, Hi: hi}}})
	if resp.StatusCode != 200 {
		t.Fatalf("box: %d %s", resp.StatusCode, body)
	}
	var br httpResp
	json.Unmarshal(body, &br)
	if len(br.Counts) != 1 || br.Counts[0] < 1 {
		t.Fatalf("box result: %+v", br)
	}

	// Delete.
	resp, _ = postJSON(t, srv.URL+"/v1/delete", httpReq{Points: [][]uint32{{123456, 654321, 111}}})
	if resp.StatusCode != 200 {
		t.Fatal("delete failed")
	}

	// Status.
	st, err := http.Get(srv.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	var stats Stats
	json.NewDecoder(st.Body).Decode(&stats)
	st.Body.Close()
	if stats.FenceViolations != 0 {
		t.Fatalf("status: %+v", stats)
	}

	// Malformed input: 400, not 500.
	resp, _ = postJSON(t, srv.URL+"/v1/search", httpReq{Points: [][]uint32{{1, 2, 3, 4, 5}}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("5-dim point: status %d", resp.StatusCode)
	}
	resp, _ = postJSON(t, srv.URL+"/v1/search", httpReq{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty search: status %d", resp.StatusCode)
	}
	resp, _ = postJSON(t, srv.URL+"/v1/knn", httpReq{Points: [][]uint32{coords(data[0])}, K: 100000})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("huge k: status %d", resp.StatusCode)
	}
}

func TestHTTPShutdown503(t *testing.T) {
	e, data := testEngine(t, 2000)
	srv := httptest.NewServer(NewHTTPHandler(e))
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := e.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	resp, body := postJSON(t, srv.URL+"/v1/search", httpReq{Points: [][]uint32{data[0].Coords[:3]}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown search: %d %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
}

func TestTCPServerEndToEnd(t *testing.T) {
	e, data := testEngine(t, 5000)
	ts, err := ServeTCP("127.0.0.1:0", e)
	if err != nil {
		t.Fatal(err)
	}
	defer closeNow(ts)

	c, err := DialTCP(ts.Addr(), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	r := searchReq(data[0], geom.Point{Dims: 3, Coords: [4]uint32{1, 1, 1, 0}})
	if err := c.Do(r); err != nil {
		t.Fatalf("tcp search: %v", err)
	}
	if !r.Resp.Found[0] || r.Resp.Found[1] {
		t.Fatalf("tcp search result: %v", r.Resp.Found)
	}

	ins := NewRequest(OpInsert)
	ins.Pts = []geom.Point{{Dims: 3, Coords: [4]uint32{1, 1, 1, 0}}}
	if err := c.Do(ins); err != nil {
		t.Fatalf("tcp insert: %v", err)
	}
	if ins.Resp.Applied != 1 {
		t.Fatalf("tcp insert applied %d", ins.Resp.Applied)
	}

	r2 := searchReq(geom.Point{Dims: 3, Coords: [4]uint32{1, 1, 1, 0}})
	if err := c.Do(r2); err != nil {
		t.Fatal(err)
	}
	if !r2.Resp.Found[0] {
		t.Fatal("tcp inserted point not found")
	}

	knn := NewRequest(OpKNN)
	knn.Pts = []geom.Point{data[3]}
	knn.K = 2
	if err := c.Do(knn); err != nil {
		t.Fatal(err)
	}
	if len(knn.Resp.Neighbors) != 1 || len(knn.Resp.Neighbors[0]) != 2 || knn.Resp.Neighbors[0][0].Dist != 0 {
		t.Fatalf("tcp knn: %+v", knn.Resp.Neighbors)
	}

	box := NewRequest(OpBox)
	box.Boxes = []geom.Box{{Lo: data[3], Hi: data[3]}}
	if err := c.Do(box); err != nil {
		t.Fatal(err)
	}
	if len(box.Resp.Counts) != 1 || box.Resp.Counts[0] < 1 {
		t.Fatalf("tcp box: %v", box.Resp.Counts)
	}

	// Engine-level validation error comes back as a wire status, and the
	// connection survives it.
	bad := NewRequest(OpKNN)
	bad.Pts = []geom.Point{data[0]}
	bad.K = 1 << 20
	err = c.Do(bad)
	var we *WireError
	if !asWireError(err, &we) || we.Status != wireBadRequest {
		t.Fatalf("tcp bad k: %v", err)
	}
	r3 := searchReq(data[0])
	if err := c.Do(r3); err != nil {
		t.Fatalf("connection poisoned by bad request: %v", err)
	}
}

// TestParallelMixedClients drives HTTP and TCP clients at the same time
// — the cross-protocol race net (run under make race).
func TestParallelMixedClients(t *testing.T) {
	e, data := testEngine(t, 10000)
	hsrv := httptest.NewServer(NewHTTPHandler(e))
	defer hsrv.Close()
	ts, err := ServeTCP("127.0.0.1:0", e)
	if err != nil {
		t.Fatal(err)
	}
	defer closeNow(ts)

	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func(w int) { // HTTP worker
			defer wg.Done()
			for i := 0; i < 30; i++ {
				p := data[(w*100+i)%len(data)]
				resp, body := postJSON(t, hsrv.URL+"/v1/search", httpReq{Points: [][]uint32{p.Coords[:3]}})
				if resp.StatusCode != 200 && resp.StatusCode != 503 {
					errCh <- fmt.Errorf("http worker %d: %d %s", w, resp.StatusCode, body)
					return
				}
			}
		}(w)
		go func(w int) { // TCP worker
			defer wg.Done()
			c, err := DialTCP(ts.Addr(), 3)
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			for i := 0; i < 30; i++ {
				var r *Request
				if i%3 == 0 {
					r = NewRequest(OpInsert)
					r.Pts = []geom.Point{{Dims: 3, Coords: [4]uint32{uint32(w)*1000 + uint32(i), 42, 42, 0}}}
				} else {
					r = searchReq(data[(w*31+i)%len(data)])
				}
				if err := c.Do(r); err != nil {
					var we *WireError
					if asWireError(err, &we) && we.Overloaded() {
						continue
					}
					errCh <- fmt.Errorf("tcp worker %d: %w", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if v := e.FenceViolations(); v != 0 {
		t.Fatalf("%d fence violations", v)
	}
}

func TestTCPShutdownDrain(t *testing.T) {
	e, data := testEngine(t, 2000)
	ts, err := ServeTCP("127.0.0.1:0", e)
	if err != nil {
		t.Fatal(err)
	}

	c, err := DialTCP(ts.Addr(), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r := searchReq(data[0])
	if err := c.Do(r); err != nil {
		t.Fatal(err)
	}

	// Engine down first: in-flight connections then get explicit shutdown
	// frames instead of hangs.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := e.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	r2 := searchReq(data[1])
	err = c.Do(r2)
	var we *WireError
	if !asWireError(err, &we) || we.Status != wireShutdown {
		t.Fatalf("post-shutdown tcp request: %v", err)
	}

	sctx, scancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer scancel()
	if err := ts.Shutdown(sctx); err != nil && err != context.DeadlineExceeded {
		t.Fatalf("tcp shutdown: %v", err)
	}
}

// closeNow force-closes ts and every connection: Shutdown with an
// already-expired context.
func closeNow(ts *TCPServer) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ts.Shutdown(ctx)
}

// TestTCPConnectionKeepsOrdinaryBuffers: a connection keeps its request's
// buffers and its frame buffers between round trips only at ordinary
// size, so one huge frame pins nothing on an idle connection, and the
// connection serves what follows it.
func TestTCPConnectionKeepsOrdinaryBuffers(t *testing.T) {
	r := NewRequest(OpSearch)
	r.Pts = make([]geom.Point, 65)
	r.Boxes = make([]geom.Box, 0, 64)
	r.Resp.Found = make([]bool, 65)
	r.trim(64)
	if r.Pts != nil || r.Resp.Found != nil || cap(r.Boxes) != 64 {
		t.Fatalf("trim(64): Pts cap %d, Found cap %d, Boxes cap %d; want 0, 0, 64",
			cap(r.Pts), cap(r.Resp.Found), cap(r.Boxes))
	}
	if keptFrame(make([]byte, keptFrameBytes+1)) != nil || keptFrame(make([]byte, 0, keptFrameBytes)) == nil {
		t.Fatalf("keptFrame keeps a frame buffer up to %d bytes and no larger", keptFrameBytes)
	}

	tr, data := testTree(t, 5000)
	e := New(Config{Backend: NewTreeBackend(tr), MaxBatch: 64})
	ts, err := ServeTCP("127.0.0.1:0", e)
	if err != nil {
		t.Fatal(err)
	}
	defer closeNow(ts)
	cl, err := DialTCP(ts.Addr(), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// 40k points: a 480 KB request frame, past both bounds.
	big := make([]geom.Point, 40_000)
	for i := range big {
		big[i] = data[i%len(data)]
	}
	for _, pts := range [][]geom.Point{big, data[:3], big[:1000], data[3:4]} {
		r := searchReq(pts...)
		if err := cl.Do(r); err != nil {
			t.Fatalf("%d-point search: %v", len(pts), err)
		}
		if len(r.Resp.Found) != len(pts) || slices.Contains(r.Resp.Found, false) {
			t.Fatalf("%d-point search: %d answers, some stored point not found", len(pts), len(r.Resp.Found))
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}
