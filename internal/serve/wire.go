package serve

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"pimzdtree/internal/core"
	"pimzdtree/internal/geom"
)

// Length-prefixed binary wire protocol (little-endian), for clients that
// cannot afford JSON at saturation offered loads. One request frame in,
// one response frame out, pipelining allowed (responses come back in
// request order per connection).
//
// Request frame (after the u32 length prefix, which counts the bytes
// that follow it):
//
//	u8  version (wireV1)
//	u8  op      (wire op code)
//	u8  dims
//	u8  reserved (0)
//	u32 count   (points or boxes)
//	u32 k       (knn only, else 0)
//	payload:
//	  points ops: count × dims × u32 coords
//	  box op:     count × 2 × dims × u32 coords (lo then hi per box)
//	optional trailer:
//	  u64 request id (non-zero). Old servers reject the longer frame with
//	  a bad-request status frame and keep the connection; old clients
//	  simply never send it, so the exact-length check still accepts them.
//
// Response frame:
//
//	u8  version
//	u8  status  (wireOK, wireBadRequest, wireOverloaded, wireShutdown)
//	u8  op      (echo)
//	u8  reserved (0)
//	u64 epoch
//	u64 trace
//	u32 count
//	payload:
//	  status != wireOK: count = message length, payload = UTF-8 message
//	  search:  count × u8 (0/1 membership)
//	  insert/delete: count = applied, no payload
//	  knn:     per query: u32 m, then m × (u64 dist, dims × u32 coords)
//	  box:     count × i64
//	optional trailer (present iff the request carried a request id):
//	  u64 request id echo, then NumStages × u64 stage nanoseconds.
//	  Old clients read exactly the payload their op implies and ignore
//	  trailing bytes, so the trailer is invisible to them.
const (
	wireV1 = 1

	wireOK         = 0
	wireBadRequest = 1
	wireOverloaded = 2
	wireShutdown   = 3

	// maxWireFrame bounds a frame body; larger prefixes poison the
	// connection (64 MiB ≈ 4M 4-d points).
	maxWireFrame = 64 << 20

	reqHeadLen  = 12 // version..k, after the length prefix
	respHeadLen = 24 // version..count, after the length prefix

	// respTrailerLen is the optional response trailer: request id echo
	// plus the per-stage nanosecond decomposition.
	respTrailerLen = 8 + NumStages*8
)

var le = binary.LittleEndian

// errFrameTooLarge poisons a connection whose peer sent an oversized or
// malformed length prefix.
var errFrameTooLarge = errors.New("serve: wire frame exceeds limit")

// wireOpCode maps Op to its on-wire code (identical numbering).
func wireOpCode(op Op) uint8 { return uint8(op) }

// opFromWire validates an on-wire op code.
func opFromWire(c uint8) (Op, error) {
	op := Op(c)
	switch op {
	case OpSearch, OpInsert, OpDelete, OpKNN, OpBox:
		return op, nil
	}
	return 0, fmt.Errorf("serve: unknown wire op %d", c)
}

// readFrame reads one length-prefixed frame body into buf (reused: the
// length prefix lands in it too, so a warm buffer reads a frame without
// allocating).
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	if cap(buf) < 4 {
		buf = make([]byte, 4)
	}
	if _, err := io.ReadFull(r, buf[:4]); err != nil {
		return nil, err
	}
	n := le.Uint32(buf[:4])
	if n > maxWireFrame {
		return nil, errFrameTooLarge
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// keptFrameBytes bounds the frame buffer a connection or client keeps
// between round trips: room for a request or answer of ordinary size (a
// 8192-point 3-D batch, a 128-query 16-NN answer) and far below the 64 MiB
// a single frame may carry.
const keptFrameBytes = 256 << 10

// keptFrame returns buf for the next round trip, or nil when it is larger
// than keptFrameBytes.
func keptFrame(buf []byte) []byte {
	if cap(buf) > keptFrameBytes {
		return nil
	}
	return buf
}

// writeFrame writes buf as one length-prefixed frame. The prefix is
// appended to w's own free buffer, as bufio.Writer.AvailableBuffer invites.
func writeFrame(w *bufio.Writer, buf []byte) error {
	if _, err := w.Write(le.AppendUint32(w.AvailableBuffer(), uint32(len(buf)))); err != nil {
		return err
	}
	_, err := w.Write(buf)
	return err
}

// encodeRequest serializes a request frame body.
func encodeRequest(dst []byte, r *Request, dims uint8) []byte {
	count := len(r.Pts)
	if r.Op == OpBox {
		count = len(r.Boxes)
	}
	dst = dst[:0]
	dst = append(dst, wireV1, wireOpCode(r.Op), dims, 0)
	dst = le.AppendUint32(dst, uint32(count))
	dst = le.AppendUint32(dst, uint32(r.K))
	for i := range r.Pts {
		dst = appendCoords(dst, &r.Pts[i], dims)
	}
	for i := range r.Boxes {
		dst = appendCoords(dst, &r.Boxes[i].Lo, dims)
		dst = appendCoords(dst, &r.Boxes[i].Hi, dims)
	}
	if r.ID != 0 {
		dst = le.AppendUint64(dst, r.ID)
	}
	return dst
}

func appendCoords(dst []byte, p *geom.Point, dims uint8) []byte {
	for d := uint8(0); d < dims; d++ {
		dst = le.AppendUint32(dst, p.Coords[d])
	}
	return dst
}

// decodeRequest parses a request frame body into req, which it first
// clears for reuse (see Request.reuse), so the points or boxes land in
// the capacity req already has.
func decodeRequest(buf []byte, req *Request) error {
	req.reuse()
	if len(buf) < reqHeadLen {
		return fmt.Errorf("serve: short request frame (%d bytes)", len(buf))
	}
	if buf[0] != wireV1 {
		return fmt.Errorf("serve: unsupported wire version %d", buf[0])
	}
	op, err := opFromWire(buf[1])
	if err != nil {
		return err
	}
	dims := buf[2]
	if dims == 0 || dims > geom.MaxDims {
		return fmt.Errorf("serve: wire dims %d outside 1..%d", dims, geom.MaxDims)
	}
	count := int(le.Uint32(buf[4:8]))
	k := int(le.Uint32(buf[8:12]))
	coordsPer := int(dims)
	if op == OpBox {
		coordsPer *= 2
	}
	want := reqHeadLen + count*coordsPer*4
	var id uint64
	switch len(buf) {
	case want:
		// legacy frame, no request id
	case want + 8:
		id = le.Uint64(buf[want:])
	default:
		return fmt.Errorf("serve: %s frame: %d bytes, want %d (or %d with request id) for count=%d",
			op, len(buf), want, want+8, count)
	}
	req.Op = op
	req.K = k
	req.ID = id
	payload := buf[reqHeadLen:]
	if op == OpBox {
		req.Boxes = slices.Grow(req.Boxes, count)[:count]
		for i := 0; i < count; i++ {
			off := i * coordsPer * 4
			req.Boxes[i] = geom.Box{}
			readCoords(payload[off:], &req.Boxes[i].Lo, dims)
			readCoords(payload[off+int(dims)*4:], &req.Boxes[i].Hi, dims)
		}
	} else {
		req.Pts = slices.Grow(req.Pts, count)[:count]
		for i := 0; i < count; i++ {
			req.Pts[i] = geom.Point{}
			readCoords(payload[i*coordsPer*4:], &req.Pts[i], dims)
		}
	}
	return nil
}

func readCoords(src []byte, p *geom.Point, dims uint8) {
	p.Dims = dims
	for d := uint8(0); d < dims; d++ {
		p.Coords[d] = le.Uint32(src[int(d)*4:])
	}
}

// encodeResponse serializes a response frame body for a completed
// request (or its error).
func encodeResponse(dst []byte, r *Request, dims uint8) []byte {
	dst = dst[:0]
	status, msg := wireStatus(r.Resp.Err)
	dst = append(dst, wireV1, status, wireOpCode(r.Op), 0)
	dst = le.AppendUint64(dst, r.Resp.Epoch)
	dst = le.AppendUint64(dst, r.Resp.Trace)
	if status != wireOK {
		dst = le.AppendUint32(dst, uint32(len(msg)))
		dst = append(dst, msg...)
		return appendRespTrailer(dst, r)
	}
	switch r.Op {
	case OpSearch:
		dst = le.AppendUint32(dst, uint32(len(r.Resp.Found)))
		for _, f := range r.Resp.Found {
			b := byte(0)
			if f {
				b = 1
			}
			dst = append(dst, b)
		}
	case OpInsert, OpDelete:
		dst = le.AppendUint32(dst, uint32(r.Resp.Applied))
	case OpKNN:
		dst = le.AppendUint32(dst, uint32(len(r.Resp.Neighbors)))
		for _, list := range r.Resp.Neighbors {
			dst = le.AppendUint32(dst, uint32(len(list)))
			for _, nb := range list {
				dst = le.AppendUint64(dst, nb.Dist)
				dst = appendCoords(dst, &nb.Point, dims)
			}
		}
	case OpBox:
		dst = le.AppendUint32(dst, uint32(len(r.Resp.Counts)))
		for _, c := range r.Resp.Counts {
			dst = le.AppendUint64(dst, uint64(c))
		}
	}
	return appendRespTrailer(dst, r)
}

// appendRespTrailer appends the id-echo + stage-nanos trailer when the
// request carried a client id; legacy requests get the legacy frame.
func appendRespTrailer(dst []byte, r *Request) []byte {
	if r.ID == 0 {
		return dst
	}
	dst = le.AppendUint64(dst, r.ID)
	for s := 0; s < NumStages; s++ {
		dst = le.AppendUint64(dst, uint64(r.Resp.StageNanos[s]))
	}
	return dst
}

// wireStatus maps an engine error to its wire status and message.
func wireStatus(err error) (uint8, string) {
	if err == nil {
		return wireOK, ""
	}
	return wireErrStatus(err), err.Error()
}

// wireErrStatus maps a non-nil engine error to its wire status. (Apart
// from wireStatus, so the OK path does not allocate errors.As's target.)
func wireErrStatus(err error) uint8 {
	var bad *BadRequestError
	switch {
	case errors.As(err, &bad):
		return wireBadRequest
	case errors.Is(err, ErrQueueFull):
		return wireOverloaded
	case errors.Is(err, ErrShuttingDown), errors.Is(err, ErrDrainDeadline):
		return wireShutdown
	default:
		return wireBadRequest
	}
}

// WireError is a non-OK wire response surfaced client-side.
type WireError struct {
	Status uint8
	Msg    string
}

func (e *WireError) Error() string {
	return fmt.Sprintf("serve: wire status %d: %s", e.Status, e.Msg)
}

// Overloaded reports whether the error is retryable back-pressure
// (overloaded or shutting down) rather than a caller bug.
func (e *WireError) Overloaded() bool {
	return e.Status == wireOverloaded || e.Status == wireShutdown
}

// decodeResponse parses a response frame body into resp.
func decodeResponse(buf []byte, dims uint8, resp *Response) error {
	if len(buf) < respHeadLen {
		return fmt.Errorf("serve: short response frame (%d bytes)", len(buf))
	}
	if buf[0] != wireV1 {
		return fmt.Errorf("serve: unsupported wire version %d", buf[0])
	}
	status := buf[1]
	op := Op(buf[2])
	resp.Epoch = le.Uint64(buf[4:12])
	resp.Trace = le.Uint64(buf[12:20])
	count := int(le.Uint32(buf[20:24]))
	payload := buf[respHeadLen:]
	if status != wireOK {
		if count > len(payload) {
			count = len(payload)
		}
		resp.Err = &WireError{Status: status, Msg: string(payload[:count])}
		decodeRespTrailer(payload[count:], resp)
		return nil
	}
	used := 0
	switch op {
	case OpSearch:
		if len(payload) < count {
			return fmt.Errorf("serve: search response: %d bytes for %d results", len(payload), count)
		}
		resp.Found = make([]bool, count)
		for i := 0; i < count; i++ {
			resp.Found[i] = payload[i] != 0
		}
		used = count
	case OpInsert, OpDelete:
		resp.Applied = count
	case OpKNN:
		// Each list takes at least its 4-byte length: check before
		// allocating count lists. A first pass validates the lengths and
		// sizes one backing array for every list, as the server's tree
		// hands them out: each list a capped sub-slice of it.
		if count > len(payload)/4 {
			return fmt.Errorf("serve: knn response: %d bytes for %d lists", len(payload), count)
		}
		per := 8 + int(dims)*4
		off, total := 0, 0
		for i := 0; i < count; i++ {
			if off+4 > len(payload) {
				return errors.New("serve: truncated knn response")
			}
			m := int(le.Uint32(payload[off:]))
			off += 4
			if m > (len(payload)-off)/per {
				return errors.New("serve: truncated knn neighbor list")
			}
			off += m * per
			total += m
		}
		resp.Neighbors = make([][]core.Neighbor, count)
		backing := make([]core.Neighbor, total)
		off, total = 0, 0
		for i := 0; i < count; i++ {
			m := int(le.Uint32(payload[off:]))
			off += 4
			list := backing[total : total+m : total+m]
			for j := range list {
				list[j].Dist = le.Uint64(payload[off:])
				readCoords(payload[off+8:], &list[j].Point, dims)
				off += per
			}
			resp.Neighbors[i] = list
			total += m
		}
		used = off
	case OpBox:
		if len(payload) < count*8 {
			return fmt.Errorf("serve: box response: %d bytes for %d counts", len(payload), count)
		}
		resp.Counts = make([]int64, count)
		for i := 0; i < count; i++ {
			resp.Counts[i] = int64(le.Uint64(payload[i*8:]))
		}
		used = count * 8
	default:
		return fmt.Errorf("serve: unknown response op %d", buf[2])
	}
	decodeRespTrailer(payload[used:], resp)
	return nil
}

// decodeRespTrailer parses the optional id-echo + stage-nanos trailer.
// Anything that is not exactly one trailer is ignored: old servers send
// none, and clients that never sent an id tolerate whatever a future
// server might append.
func decodeRespTrailer(tail []byte, resp *Response) {
	if len(tail) != respTrailerLen {
		return
	}
	resp.ID = le.Uint64(tail)
	for s := 0; s < NumStages; s++ {
		resp.StageNanos[s] = int64(le.Uint64(tail[8+s*8:]))
	}
}
