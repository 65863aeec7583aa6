package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"

	"pimzdtree/internal/core"
	"pimzdtree/internal/geom"
)

// HTTP/JSON client API. Mount NewHTTPHandler on any mux (the admin
// server mounts it under /v1/ via metrics.AdminConfig.Extra):
//
//	POST /v1/search  {"points": [[x,y,z], ...]}
//	POST /v1/insert  {"points": [[x,y,z], ...]}
//	POST /v1/delete  {"points": [[x,y,z], ...]}
//	POST /v1/knn     {"points": [[x,y,z], ...], "k": 8}
//	POST /v1/box     {"boxes": [{"lo": [..], "hi": [..]}, ...]}
//	GET  /v1/status
//
// Coordinates are uint32 (the tree's native key space). Every response
// carries the observed epoch and, when the flight recorder is on, the
// trace ID of the coalesced batch that served the request — grep it in
// /snapshot/flightrecorder. Malformed input is 400; shed, shutdown, and
// drain-deadline are 503 with Retry-After.

// httpBox mirrors geom.Box in JSON.
type httpBox struct {
	Lo []uint32 `json:"lo"`
	Hi []uint32 `json:"hi"`
}

// httpReq is the request body for every POST endpoint.
type httpReq struct {
	Points [][]uint32 `json:"points,omitempty"`
	Boxes  []httpBox  `json:"boxes,omitempty"`
	K      int        `json:"k,omitempty"`
	// ID is an optional client-chosen request id; when non-zero the
	// response echoes it together with the request's per-stage latency
	// decomposition, and slow-request capture records it.
	ID uint64 `json:"id,omitempty"`
}

// httpResp is the response body. Fields are op-specific; Epoch and Trace
// are always present (trace omitted when tracing is off).
type httpResp struct {
	Found     []bool      `json:"found,omitempty"`
	Applied   int         `json:"applied,omitempty"`
	Neighbors [][]httpNbr `json:"neighbors,omitempty"`
	Counts    []int64     `json:"counts,omitempty"`
	Epoch     uint64      `json:"epoch"`
	Trace     uint64      `json:"trace,omitempty"`
	// ID echoes the request id; StageSeconds is the request's per-stage
	// wall-time decomposition (keys from StageNames), present only when
	// an id was sent.
	ID           uint64             `json:"id,omitempty"`
	StageSeconds map[string]float64 `json:"stage_seconds,omitempty"`
}

// httpNbr is one kNN result point with its squared l2 distance.
type httpNbr struct {
	Point []uint32 `json:"point"`
	Dist  uint64   `json:"dist"`
}

// maxHTTPBody bounds request bodies (16 MiB ≈ 1M 3-d points).
const maxHTTPBody = 16 << 20

// httpPaths is each client op's endpoint: the handler serves from it and
// HTTPClient posts to it.
var httpPaths = [...]string{
	OpSearch: "/v1/search",
	OpInsert: "/v1/insert",
	OpDelete: "/v1/delete",
	OpKNN:    "/v1/knn",
	OpBox:    "/v1/box",
}

// NewHTTPHandler serves the /v1/* client API backed by e.
func NewHTTPHandler(e *Engine) http.Handler {
	mux := http.NewServeMux()
	for op := OpSearch; op <= OpBox; op++ {
		mux.HandleFunc(httpPaths[op], func(w http.ResponseWriter, r *http.Request) { serveOp(e, op, w, r) })
	}
	mux.HandleFunc("/v1/status", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(e.Stats())
	})
	return mux
}

// serveOp decodes, submits through the engine, and encodes the response.
func serveOp(e *Engine, op Op, w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var body httpReq
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxHTTPBody))
	if err := dec.Decode(&body); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	req := NewRequest(op)
	req.K = body.K
	req.ID = body.ID
	var err error
	if req.Pts, err = decodePoints(body.Points); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if req.Boxes, err = decodeBoxes(body.Boxes); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if err := e.Do(r.Context(), req); err != nil {
		writeEngineErr(w, err)
		return
	}
	resp := httpResp{
		Found:   req.Resp.Found,
		Applied: req.Resp.Applied,
		Counts:  req.Resp.Counts,
		Epoch:   req.Resp.Epoch,
		Trace:   req.Resp.Trace,
	}
	if op == OpKNN {
		resp.Neighbors = encodeNeighbors(req.Resp.Neighbors)
	}
	if req.ID != 0 {
		resp.ID = req.ID
		resp.StageSeconds = make(map[string]float64, NumStages)
		for s := 0; s < NumStages; s++ {
			resp.StageSeconds[StageNames[s]] = float64(req.Resp.StageNanos[s]) / 1e9
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// writeEngineErr maps engine errors to HTTP statuses: malformed input is
// the client's fault (400); shed, shutdown, and drain-deadline mean "back
// off and retry" (503 + Retry-After).
func writeEngineErr(w http.ResponseWriter, err error) {
	var bad *BadRequestError
	switch {
	case errors.As(err, &bad):
		http.Error(w, err.Error(), http.StatusBadRequest)
	case errors.Is(err, ErrQueueFull),
		errors.Is(err, ErrShuttingDown),
		errors.Is(err, ErrDrainDeadline):
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// decodePoints converts JSON coordinate rows to geom.Points.
func decodePoints(rows [][]uint32) ([]geom.Point, error) {
	if len(rows) == 0 {
		return nil, nil
	}
	pts := make([]geom.Point, len(rows))
	for i, row := range rows {
		p, err := pointFromCoords(row)
		if err != nil {
			return nil, fmt.Errorf("point %d: %w", i, err)
		}
		pts[i] = p
	}
	return pts, nil
}

// decodeBoxes converts JSON lo/hi pairs to geom.Boxes.
func decodeBoxes(rows []httpBox) ([]geom.Box, error) {
	if len(rows) == 0 {
		return nil, nil
	}
	boxes := make([]geom.Box, len(rows))
	for i, row := range rows {
		lo, err := pointFromCoords(row.Lo)
		if err != nil {
			return nil, fmt.Errorf("box %d lo: %w", i, err)
		}
		hi, err := pointFromCoords(row.Hi)
		if err != nil {
			return nil, fmt.Errorf("box %d hi: %w", i, err)
		}
		boxes[i] = geom.Box{Lo: lo, Hi: hi}
	}
	return boxes, nil
}

// pointFromCoords builds a geom.Point from a coordinate row.
func pointFromCoords(row []uint32) (geom.Point, error) {
	if len(row) == 0 || len(row) > int(geom.MaxDims) {
		return geom.Point{}, fmt.Errorf("%d coords (want 1..%d)", len(row), geom.MaxDims)
	}
	var p geom.Point
	p.Dims = uint8(len(row))
	copy(p.Coords[:], row)
	return p, nil
}

// encodeNeighbors converts core neighbor lists to the JSON shape.
func encodeNeighbors(lists [][]core.Neighbor) [][]httpNbr {
	out := make([][]httpNbr, len(lists))
	for i, list := range lists {
		row := make([]httpNbr, len(list))
		for j, nb := range list {
			row[j] = httpNbr{
				Point: append([]uint32(nil), nb.Point.Coords[:nb.Point.Dims]...),
				Dist:  nb.Dist,
			}
		}
		out[i] = row
	}
	return out
}

// HTTPClient is the /v1 JSON counterpart of the wire Client, with its
// contract: Do sends r and fills r.Resp, engine-level refusals come back
// as *WireError in r.Resp.Err (and are returned; a 503 is Overloaded),
// and transport errors are returned alone.
type HTTPClient struct {
	base string
	c    http.Client
}

// NewHTTPClient returns a client of the /v1 API served at addr (host:port).
func NewHTTPClient(addr string) *HTTPClient {
	return &HTTPClient{base: "http://" + addr, c: http.Client{Timeout: 30 * time.Second}}
}

// Close releases the client's idle connections.
func (h *HTTPClient) Close() error {
	h.c.CloseIdleConnections()
	return nil
}

// Do sends r and fills r.Resp from the JSON answer.
func (h *HTTPClient) Do(r *Request) error {
	if r.Op < OpSearch || r.Op > OpBox {
		r.Resp.Err = &WireError{Status: wireBadRequest, Msg: fmt.Sprintf("no /v1 endpoint for %s", r.Op)}
		return r.Resp.Err
	}
	body := httpReq{K: r.K, ID: r.ID}
	for i := range r.Pts {
		body.Points = append(body.Points, r.Pts[i].Coords[:r.Pts[i].Dims])
	}
	for i := range r.Boxes {
		b := &r.Boxes[i]
		body.Boxes = append(body.Boxes, httpBox{Lo: b.Lo.Coords[:b.Lo.Dims], Hi: b.Hi.Coords[:b.Hi.Dims]})
	}
	payload, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := h.c.Post(h.base+httpPaths[r.Op], "application/json", bytes.NewReader(payload))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		we := &WireError{Status: wireBadRequest, Msg: fmt.Sprintf("http %d: %s", resp.StatusCode, bytes.TrimSpace(msg))}
		if resp.StatusCode == http.StatusServiceUnavailable {
			we.Status = wireOverloaded
		}
		r.Resp.Err = we
		return we
	}
	var hr httpResp
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		return fmt.Errorf("serve: http %s answer: %w", r.Op, err)
	}
	io.Copy(io.Discard, resp.Body) // so the connection is reused
	r.Resp.Found, r.Resp.Applied, r.Resp.Counts = hr.Found, hr.Applied, hr.Counts
	r.Resp.ID, r.Resp.Epoch, r.Resp.Trace = hr.ID, hr.Epoch, hr.Trace
	if hr.Neighbors != nil {
		r.Resp.Neighbors = make([][]core.Neighbor, len(hr.Neighbors))
		for i, row := range hr.Neighbors {
			r.Resp.Neighbors[i] = make([]core.Neighbor, len(row))
			for j, nb := range row {
				p, err := pointFromCoords(nb.Point)
				if err != nil {
					return fmt.Errorf("serve: http knn answer %d.%d: %w", i, j, err)
				}
				r.Resp.Neighbors[i][j] = core.Neighbor{Point: p, Dist: nb.Dist}
			}
		}
	}
	for s, name := range StageNames {
		r.Resp.StageNanos[s] = int64(math.Round(hr.StageSeconds[name] * 1e9))
	}
	return nil
}
