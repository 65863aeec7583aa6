package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// httpFuzzPaths are the POST endpoints FuzzHTTPBody drives, indexed by the
// fuzzed op byte.
var httpFuzzPaths = []string{"/v1/search", "/v1/insert", "/v1/delete", "/v1/knn", "/v1/box"}

// FuzzHTTPBody posts fuzzed bodies to the /v1 op endpoints of
// NewHTTPHandler over a small engine. No body may panic the handler or get
// a 500; a body that is not one JSON request object gets a 4xx; a 2xx
// answers once per request item (every point, or every box); and a valid
// search still succeeds afterwards.
func FuzzHTTPBody(f *testing.F) {
	for op, body := range []string{
		`{"points":[[1,2,3],[4,5,6]]}`,
		`{"points":[[7,8,9]],"id":12}`,
		`{"points":[[7,8,9]]}`,
		`{"points":[[1,2,3],[4,5,6]],"k":3}`,
		`{"boxes":[{"lo":[0,0,0],"hi":[99999,99999,99999]}]}`,
	} {
		f.Add(uint8(op), []byte(body))
	}
	for _, body := range []string{
		``, `{`, `null`, `[]`, `{}`, `{"points":[]}`, `{"points":[[]]}`,
		`{"points":[[1,2]]}`, `{"points":[[1,2,3,4,5,6,7,8,9]]}`,
		`{"points":[[-1,2,3]]}`, `{"points":[[4294967295,4294967295,4294967295]]}`,
		`{"points":[[1,2,3]],"k":-1}`, `{"points":[[1,2,3]],"k":100000}`,
		`{"boxes":[{"lo":[9,9,9],"hi":[1,1,1]}]}`, `{"boxes":[{"lo":[1,2,3]}]}`,
		`{"points":[[1,2,3]],"boxes":[{"lo":[0,0,0],"hi":[1,1,1]}]}`,
		`{"points":[[1,2,3]]} trailing`, `{"points":[[1,2,3]],"points":null}`,
	} {
		for op := range httpFuzzPaths {
			f.Add(uint8(op), []byte(body))
		}
	}
	e, data := testEngine(f, 2000)
	h := NewHTTPHandler(e)
	valid, err := json.Marshal(httpReq{Points: [][]uint32{data[0].Coords[:data[0].Dims]}})
	if err != nil {
		f.Fatal(err)
	}
	post := func(path string, body []byte) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return w
	}

	f.Fuzz(func(t *testing.T, op uint8, body []byte) {
		path := httpFuzzPaths[int(op)%len(httpFuzzPaths)]
		w := post(path, body)
		// The handler reads the first JSON value of the body, as here.
		var req httpReq
		decodeErr := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
		switch code := w.Code; {
		case code >= 500:
			t.Fatalf("%s %q: status %d: %s", path, body, code, w.Body)
		case decodeErr != nil && code < 400:
			t.Fatalf("%s %q: undecodable body got status %d", path, body, code)
		case code >= 200 && code < 300:
			var resp httpResp
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				t.Fatalf("%s %q: response %q: %v", path, body, w.Body, err)
			}
			var items, answers int
			switch path {
			case "/v1/search":
				items, answers = len(req.Points), len(resp.Found)
			case "/v1/insert", "/v1/delete":
				items, answers = len(req.Points), resp.Applied
			case "/v1/knn":
				items, answers = len(req.Points), len(resp.Neighbors)
				for i, nbrs := range resp.Neighbors {
					if len(nbrs) > req.K {
						t.Fatalf("%s %q: query %d got %d neighbors, k=%d", path, body, i, len(nbrs), req.K)
					}
				}
			case "/v1/box":
				items, answers = len(req.Boxes), len(resp.Counts)
			}
			if items == 0 || answers != items {
				t.Fatalf("%s %q: %d answers for %d items", path, body, answers, items)
			}
		}
		if w := post("/v1/search", valid); w.Code != http.StatusOK {
			t.Fatalf("valid search after %s %q: status %d: %s", path, body, w.Code, w.Body)
		}
	})
}
