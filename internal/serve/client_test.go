package serve

import (
	"context"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"pimzdtree/internal/geom"
	"pimzdtree/internal/workload"
)

// cloneReq is a fresh request with r's op and arguments.
func cloneReq(r *Request, id uint64) *Request {
	c := NewRequest(r.Op)
	c.Pts, c.Boxes, c.K, c.ID = r.Pts, r.Boxes, r.K, id
	return c
}

// TestHTTPAndTCPClientsAgree: one stream's requests, each sent through
// HTTPClient and then through the wire Client against one server with
// nothing in between, get the same answers — found, applied, neighbours,
// counts, epoch for reads, and the stage echo of their request IDs.
func TestHTTPAndTCPClientsAgree(t *testing.T) {
	e, data := testEngine(t, 5000)
	srv := httptest.NewServer(NewHTTPHandler(e))
	defer srv.Close()
	ts, err := ServeTCP("127.0.0.1:0", e)
	if err != nil {
		t.Fatal(err)
	}
	defer closeNow(ts)
	hc := NewHTTPClient(strings.TrimPrefix(srv.URL, "http://"))
	defer hc.Close()
	tc, err := DialTCP(ts.Addr(), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()

	s := NewTraffic(data, workload.QueryBoxes(7, data, 64, 32), DefaultMix, 5, 0).Stream(11)
	seen := map[Op]int{}
	for i := uint64(1); i <= 400; i++ {
		r := s.Next()
		seen[r.Op]++
		h, w := cloneReq(r, 2*i), cloneReq(r, 2*i+1)
		if err := hc.Do(h); err != nil {
			t.Fatalf("request %d (%s) over HTTP: %v", i, r.Op, err)
		}
		if err := tc.Do(w); err != nil {
			t.Fatalf("request %d (%s) over TCP: %v", i, r.Op, err)
		}
		a, b := &h.Resp, &w.Resp
		if !slices.Equal(a.Found, b.Found) || a.Applied != b.Applied || !slices.Equal(a.Counts, b.Counts) ||
			len(a.Neighbors) != len(b.Neighbors) {
			t.Fatalf("request %d (%s): HTTP %+v, TCP %+v", i, r.Op, *a, *b)
		}
		for q := range a.Neighbors {
			if !slices.Equal(a.Neighbors[q], b.Neighbors[q]) {
				t.Fatalf("request %d query %d neighbours: HTTP %v, TCP %v", i, q, a.Neighbors[q], b.Neighbors[q])
			}
		}
		// A read observes the same snapshot; each update publishes its own.
		wantTCPEpoch := a.Epoch
		if r.Op == OpInsert || r.Op == OpDelete {
			wantTCPEpoch++
		}
		if b.Epoch != wantTCPEpoch {
			t.Fatalf("request %d (%s): HTTP epoch %d, TCP epoch %d", i, r.Op, a.Epoch, b.Epoch)
		}
		for _, resp := range []*Response{a, b} {
			var total int64
			for _, ns := range resp.StageNanos {
				total += ns
			}
			if total <= 0 {
				t.Fatalf("request %d (%s): no stage echo in %+v", i, r.Op, *resp)
			}
		}
		if a.ID != h.ID || b.ID != w.ID {
			t.Fatalf("request %d: id echo %d/%d, sent %d/%d", i, a.ID, b.ID, h.ID, w.ID)
		}
	}
	for op := OpSearch; op <= OpBox; op++ {
		if seen[op] == 0 {
			t.Fatalf("the stream drew no %s in 400 requests", op)
		}
	}
	// An op the API does not serve is refused by both, and not as shed.
	for _, c := range []interface{ Do(*Request) error }{hc, tc} {
		r := searchReq(data[0])
		r.Op = opBarrier
		if we, ok := c.Do(r).(*WireError); !ok || we.Overloaded() || r.Resp.Err != we {
			t.Fatalf("%T: %s request answered %v, want a non-overloaded *WireError", c, r.Op, r.Resp.Err)
		}
	}
}

// TestClientsReportShedAsOverloaded: a request admission control sheds is
// an Overloaded *WireError from both clients, in r.Resp.Err and returned.
func TestClientsReportShedAsOverloaded(t *testing.T) {
	gb := newGatedBackend()
	e := New(Config{Backend: gb, MaxQueuedOps: 1})
	srv := httptest.NewServer(NewHTTPHandler(e))
	ts, err := ServeTCP("127.0.0.1:0", e)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(gb.gate)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		e.Shutdown(ctx)
		srv.Close()
		closeNow(ts)
	}()
	// Held until the gate opens, the first request fills the queue.
	if err := e.Submit(searchReq(geom.Point{Dims: 3})); err != nil {
		t.Fatal(err)
	}
	hc := NewHTTPClient(strings.TrimPrefix(srv.URL, "http://"))
	defer hc.Close()
	tc, err := DialTCP(ts.Addr(), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	for name, c := range map[string]interface{ Do(*Request) error }{"http": hc, "tcp": tc} {
		r := searchReq(geom.Point{Dims: 3})
		err := c.Do(r)
		we, ok := err.(*WireError)
		if !ok || !we.Overloaded() || r.Resp.Err != err {
			t.Fatalf("%s: shed request returned %v (Resp.Err %v), want an Overloaded *WireError in both", name, err, r.Resp.Err)
		}
	}
}
