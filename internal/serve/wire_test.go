package serve

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"pimzdtree/internal/core"
	"pimzdtree/internal/geom"
)

func wirePoint(coords ...uint32) geom.Point {
	var p geom.Point
	p.Dims = uint8(len(coords))
	copy(p.Coords[:], coords)
	return p
}

func TestWireRequestRoundTrip(t *testing.T) {
	cases := []*Request{
		func() *Request {
			r := NewRequest(OpSearch)
			r.Pts = []geom.Point{wirePoint(1, 2, 3), wirePoint(4, 5, 6)}
			return r
		}(),
		func() *Request {
			r := NewRequest(OpInsert)
			r.Pts = []geom.Point{wirePoint(7, 8, 9)}
			return r
		}(),
		func() *Request {
			r := NewRequest(OpKNN)
			r.Pts = []geom.Point{wirePoint(10, 20, 30)}
			r.K = 5
			return r
		}(),
		func() *Request {
			r := NewRequest(OpBox)
			r.Boxes = []geom.Box{{Lo: wirePoint(0, 0, 0), Hi: wirePoint(9, 9, 9)}}
			return r
		}(),
	}
	for _, want := range cases {
		t.Run(want.Op.String(), func(t *testing.T) {
			frame := encodeRequest(nil, want, 3)
			got, err := decodeRequest(frame)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if got.Op != want.Op || got.K != want.K {
				t.Fatalf("op/k mismatch: %v/%d vs %v/%d", got.Op, got.K, want.Op, want.K)
			}
			if !reflect.DeepEqual(got.Pts, want.Pts) && (len(got.Pts) != 0 || len(want.Pts) != 0) {
				t.Fatalf("points: %v vs %v", got.Pts, want.Pts)
			}
			if !reflect.DeepEqual(got.Boxes, want.Boxes) && (len(got.Boxes) != 0 || len(want.Boxes) != 0) {
				t.Fatalf("boxes: %v vs %v", got.Boxes, want.Boxes)
			}
		})
	}
}

func TestWireRequestRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,       // empty
		{1, 2, 3}, // short
		append([]byte{9}, make([]byte, reqHeadLen)...),         // bad version
		{wireV1, 99, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0},             // bad op
		{wireV1, byte(OpSearch), 9, 0, 0, 0, 0, 0, 0, 0, 0, 0}, // bad dims
		{wireV1, byte(OpSearch), 3, 0, 2, 0, 0, 0, 0, 0, 0, 0}, // count/payload mismatch
	}
	for i, frame := range cases {
		if _, err := decodeRequest(frame); err == nil {
			t.Errorf("case %d: garbage frame accepted", i)
		}
	}
}

func TestWireResponseRoundTrip(t *testing.T) {
	mk := func(op Op, fill func(*Response)) *Request {
		r := NewRequest(op)
		fill(&r.Resp)
		r.Resp.Epoch = 42
		r.Resp.Trace = 77
		return r
	}
	cases := []*Request{
		mk(OpSearch, func(resp *Response) { resp.Found = []bool{true, false, true} }),
		mk(OpInsert, func(resp *Response) { resp.Applied = 12 }),
		mk(OpDelete, func(resp *Response) { resp.Applied = 3 }),
		mk(OpBox, func(resp *Response) { resp.Counts = []int64{0, 99, 12345678901} }),
		mk(OpKNN, func(resp *Response) {
			resp.Neighbors = [][]core.Neighbor{
				{{Point: wirePoint(1, 2, 3), Dist: 0}, {Point: wirePoint(2, 2, 3), Dist: 1}},
				{},
			}
		}),
	}
	for _, req := range cases {
		t.Run(req.Op.String(), func(t *testing.T) {
			frame := encodeResponse(nil, req, 3)
			var got Response
			if err := decodeResponse(frame, 3, &got); err != nil {
				t.Fatalf("decode: %v", err)
			}
			if got.Epoch != 42 || got.Trace != 77 {
				t.Fatalf("epoch/trace: %d/%d", got.Epoch, got.Trace)
			}
			want := req.Resp
			if !reflect.DeepEqual(got.Found, want.Found) && len(want.Found) != 0 {
				t.Fatalf("found: %v vs %v", got.Found, want.Found)
			}
			if got.Applied != want.Applied {
				t.Fatalf("applied: %d vs %d", got.Applied, want.Applied)
			}
			if !reflect.DeepEqual(got.Counts, want.Counts) && len(want.Counts) != 0 {
				t.Fatalf("counts: %v vs %v", got.Counts, want.Counts)
			}
			if req.Op == OpKNN {
				if len(got.Neighbors) != len(want.Neighbors) {
					t.Fatalf("neighbor lists: %d vs %d", len(got.Neighbors), len(want.Neighbors))
				}
				for i := range want.Neighbors {
					if len(want.Neighbors[i]) == 0 {
						if len(got.Neighbors[i]) != 0 {
							t.Fatalf("list %d: want empty", i)
						}
						continue
					}
					if !reflect.DeepEqual(got.Neighbors[i], want.Neighbors[i]) {
						t.Fatalf("list %d: %v vs %v", i, got.Neighbors[i], want.Neighbors[i])
					}
				}
			}
		})
	}
}

// A 24-byte kNN response whose header claims 2^32-1 neighbor lists is
// refused before anything is sized by that count (it used to ask for
// ~96 GiB of list headers).
func TestWireResponseRejectsHugeKNNCount(t *testing.T) {
	frame := make([]byte, respHeadLen)
	frame[0], frame[1], frame[2] = wireV1, wireOK, byte(OpKNN)
	le.PutUint32(frame[20:], 0xFFFFFFFF)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	var resp Response
	err := decodeResponse(frame, 3, &resp)
	runtime.ReadMemStats(&ms)
	if err == nil {
		t.Fatalf("frame accepted with %d neighbor lists", len(resp.Neighbors))
	}
	if grew := ms.TotalAlloc - before; grew > 1<<20 {
		t.Fatalf("decoding allocated %d bytes", grew)
	}
}

func TestWireErrorResponses(t *testing.T) {
	cases := []struct {
		err        error
		status     uint8
		overloaded bool
	}{
		{&BadRequestError{Msg: "nope"}, wireBadRequest, false},
		{ErrQueueFull, wireOverloaded, true},
		{ErrShuttingDown, wireShutdown, true},
		{ErrDrainDeadline, wireShutdown, true},
	}
	for _, tc := range cases {
		r := NewRequest(OpSearch)
		r.Resp.Err = tc.err
		frame := encodeResponse(nil, r, 3)
		var got Response
		if err := decodeResponse(frame, 3, &got); err != nil {
			t.Fatalf("%v: decode: %v", tc.err, err)
		}
		var we *WireError
		if !asWireError(got.Err, &we) {
			t.Fatalf("%v: want WireError, got %v", tc.err, got.Err)
		}
		if we.Status != tc.status {
			t.Errorf("%v: status %d, want %d", tc.err, we.Status, tc.status)
		}
		if we.Overloaded() != tc.overloaded {
			t.Errorf("%v: overloaded %v, want %v", tc.err, we.Overloaded(), tc.overloaded)
		}
	}
}

func asWireError(err error, out **WireError) bool {
	we, ok := err.(*WireError)
	if ok {
		*out = we
	}
	return ok
}

func TestWireFrameIO(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello frames")
	if err := writeFrame(&buf, payload); err != nil {
		t.Fatal(err)
	}
	got, err := readFrame(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("frame body %q", got)
	}

	// Oversized length prefix poisons the read.
	var big bytes.Buffer
	big.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := readFrame(&big, nil); err != errFrameTooLarge {
		t.Fatalf("want errFrameTooLarge, got %v", err)
	}
}
