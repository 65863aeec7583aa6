package serve

import (
	"reflect"
	"testing"

	"pimzdtree/internal/core"
	"pimzdtree/internal/geom"
)

// wireRequestSeeds is one request of every op, each with and without a
// request ID.
func wireRequestSeeds() []*Request {
	var out []*Request
	for _, id := range []uint64{0, 0xfeed} {
		for _, op := range []Op{OpSearch, OpInsert, OpDelete, OpKNN, OpBox} {
			r := NewRequest(op)
			r.ID = id
			if op == OpBox {
				r.Boxes = []geom.Box{{Lo: wirePoint(0, 1, 2), Hi: wirePoint(9, 9, 9)}}
			} else {
				r.Pts = []geom.Point{wirePoint(1, 2, 3), wirePoint(4, 5, 6)}
			}
			if op == OpKNN {
				r.K = 4
			}
			out = append(out, r)
		}
	}
	return out
}

// wireResponseSeeds is one completed request of every op, each with and
// without a request ID, plus an error response of each kind.
func wireResponseSeeds() []*Request {
	var out []*Request
	for _, id := range []uint64{0, 0xfeed} {
		for _, op := range []Op{OpSearch, OpInsert, OpDelete, OpKNN, OpBox} {
			r := NewRequest(op)
			r.ID = id
			r.Resp = Response{Epoch: 3, Trace: 5}
			r.Resp.StageNanos[0] = 100
			switch op {
			case OpSearch:
				r.Resp.Found = []bool{true, false}
			case OpInsert, OpDelete:
				r.Resp.Applied = 2
			case OpKNN:
				r.Resp.Neighbors = [][]core.Neighbor{{{Point: wirePoint(1, 2, 3), Dist: 7}}, {}}
			case OpBox:
				r.Resp.Counts = []int64{0, 42}
			}
			out = append(out, r)
		}
		for _, err := range []error{&BadRequestError{Msg: "bad"}, ErrQueueFull, ErrShuttingDown} {
			r := NewRequest(OpSearch)
			r.ID = id
			r.Resp.Err = err
			out = append(out, r)
		}
	}
	return out
}

// FuzzDecodeRequest: no frame panics the decoder, no decoded slice is longer
// than the frame could encode, and every accepted request survives an
// encode/decode round trip unchanged.
func FuzzDecodeRequest(f *testing.F) {
	for _, r := range wireRequestSeeds() {
		f.Add(encodeRequest(nil, r, 3))
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		req, err := decodeRequest(frame)
		if err != nil {
			return
		}
		payload := len(frame) - reqHeadLen
		if len(req.Pts) > payload/4 || len(req.Boxes) > payload/8 {
			t.Fatalf("%d points, %d boxes from a %d-byte payload", len(req.Pts), len(req.Boxes), payload)
		}
		again, err := decodeRequest(encodeRequest(nil, req, frame[2]))
		if err != nil {
			t.Fatalf("re-encoded request rejected: %v", err)
		}
		if again.Op != req.Op || again.K != req.K || again.ID != req.ID ||
			!reflect.DeepEqual(again.Pts, req.Pts) || !reflect.DeepEqual(again.Boxes, req.Boxes) {
			t.Fatalf("round trip changed the request:\n got %+v\nwant %+v", again, req)
		}
	})
}

// FuzzDecodeResponse: no frame panics the decoder, no decoded slice is
// longer than the frame could encode, and every accepted response the
// encoder could have written (status OK; stage times only with a request
// ID) survives an encode/decode round trip unchanged.
func FuzzDecodeResponse(f *testing.F) {
	for _, r := range wireResponseSeeds() {
		f.Add(encodeResponse(nil, r, 3), uint8(3))
	}
	f.Fuzz(func(t *testing.T, frame []byte, dims uint8) {
		dims = 1 + dims%geom.MaxDims
		var resp Response
		if err := decodeResponse(frame, dims, &resp); err != nil {
			return
		}
		payload := len(frame) - respHeadLen
		if len(resp.Found) > payload || len(resp.Neighbors) > payload/4 || len(resp.Counts) > payload/8 {
			t.Fatalf("%d found, %d lists, %d counts from a %d-byte payload",
				len(resp.Found), len(resp.Neighbors), len(resp.Counts), payload)
		}
		neighbors := 0
		for _, list := range resp.Neighbors {
			neighbors += len(list)
		}
		if neighbors > payload/(8+4*int(dims)) {
			t.Fatalf("%d neighbors from a %d-byte payload", neighbors, payload)
		}
		if resp.Err != nil || (resp.ID == 0 && resp.StageNanos != [NumStages]int64{}) {
			return
		}
		r := &Request{Op: Op(frame[2]), ID: resp.ID, Resp: resp}
		var again Response
		if err := decodeResponse(encodeResponse(nil, r, dims), dims, &again); err != nil {
			t.Fatalf("re-encoded response rejected: %v", err)
		}
		if !reflect.DeepEqual(again, resp) {
			t.Fatalf("round trip changed the response:\n got %+v\nwant %+v", again, resp)
		}
	})
}
