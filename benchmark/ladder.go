package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"pimzdtree/internal/core"
	"pimzdtree/internal/serve"
	"pimzdtree/internal/shard"
)

// ladder replays the same fixed requests, one caller, at each boundary of
// the stack — tree, sharded index, engine, TCP, HTTP — so that a layer's
// cost per request is the difference between its rung and the one below.
// A sixth replay through an engine with every observability hook off gives
// what watching costs.
func (w *wireRead) ladder(tr *tracer, out map[string]float64) error {
	n := scaled(wireLadderReqs, w.c.scale, 32)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// replay times n requests through do and returns the mean µs of one.
	replay := func(rung string, do func(s *wireSpec, id uint64) (bool, error)) (float64, error) {
		id := tr.open("ladder."+rung, 0, 0, 0)
		defer tr.close(id, n)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			s := &w.specs[i%len(w.specs)]
			ok, err := do(s, uint64(i+1))
			if err != nil {
				return 0, fmt.Errorf("ladder %s: %w", rung, err)
			}
			if !ok {
				w.fail("ladder %s: request %d answered wrongly", rung, i)
			}
		}
		return float64(time.Since(t0).Microseconds()) / float64(n), nil
	}
	direct := func(b serve.Backend) func(*wireSpec, uint64) (bool, error) {
		return func(s *wireSpec, _ uint64) (bool, error) {
			if s.op == serve.OpSearch {
				return sameBools(b.SearchBatch(s.pts), s.expect), nil
			}
			return knnShape(b.KNNBatch(s.pts, s.k), len(s.pts), s.k), nil
		}
	}
	through := func(e *serve.Engine) func(*wireSpec, uint64) (bool, error) {
		return func(s *wireSpec, id uint64) (bool, error) {
			r := serve.NewRequest(s.op)
			r.Pts, r.K, r.ID = s.pts, s.k, id
			if err := e.Do(ctx, r); err != nil {
				return false, err
			}
			return s.ok(&r.Resp), nil
		}
	}

	var err error
	rung := func(name string, do func(*wireSpec, uint64) (bool, error)) {
		if err == nil {
			out["ladder."+name+"_us_per_req"], err = replay(name, do)
		}
	}
	rung("core", direct(serve.NewTreeBackend(w.tree)))

	// The same points and the same number of modules, cut into two shards.
	sharded := arm()
	x := shard.New(shard.Config{Trees: 2, Dims: dims, Machine: machine(w.tree.P() / 2), Tuning: core.ThroughputOptimized,
		Obs: sharded.rec, LoadStats: true}, w.data)
	x.SetFanoutCapture(true)
	rung("shard", direct(x))

	rung("engine", through(w.eng))
	rung("tcp", func(s *wireSpec, id uint64) (bool, error) {
		r := s.request(id)
		if err := w.clients[0].Do(r); err != nil {
			return false, err
		}
		return s.ok(&r.Resp), nil
	})

	ln, lerr := net.Listen("tcp", "127.0.0.1:0")
	if lerr != nil {
		return fmt.Errorf("ladder http: %w", lerr)
	}
	srv := &http.Server{Handler: serve.NewHTTPHandler(w.eng)}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	client := &http.Client{}
	rung("http", func(s *wireSpec, id uint64) (bool, error) {
		return httpDo(client, "http://"+ln.Addr().String(), s, id)
	})
	client.CloseIdleConnections()
	if cerr := srv.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("ladder http: %w", cerr)
	}
	if serr := <-served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = fmt.Errorf("ladder http: %w", serr)
	}
	if err != nil {
		return err
	}

	// The engine rung again with nothing watching: a tree with no recorder
	// and no load statistics behind an engine with no registry, flight
	// ring, request capture or SLO tracker.
	bare := (*armed)(nil).engine(serve.NewTreeBackend(newTree(w.data, w.tree.P())))
	defer stopEngine(bare)
	us, err := replay("engine_bare", through(bare))
	if err != nil {
		return err
	}
	out["obs.overhead_ratio"] = out["ladder.engine_us_per_req"] / us
	return nil
}

// httpBody is the JSON the /v1 endpoints take.
type httpBody struct {
	Points [][]uint32 `json:"points"`
	K      int        `json:"k,omitempty"`
	ID     uint64     `json:"id"`
}

// httpAnswer is the part of the /v1 response the ladder checks.
type httpAnswer struct {
	Found     []bool `json:"found"`
	Neighbors [][]struct {
		Dist uint64 `json:"dist"`
	} `json:"neighbors"`
}

// httpDo sends s to the HTTP API the way a JSON client would: encode, POST,
// decode.
func httpDo(c *http.Client, base string, s *wireSpec, id uint64) (bool, error) {
	body := httpBody{K: s.k, ID: id, Points: make([][]uint32, len(s.pts))}
	for i, p := range s.pts {
		body.Points[i] = p.Coords[:p.Dims]
	}
	buf, err := json.Marshal(body)
	if err != nil {
		return false, err
	}
	resp, err := c.Post(base+"/v1/"+s.op.String(), "application/json", bytes.NewReader(buf))
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body) // best effort: the status is the error
		return false, fmt.Errorf("status %d: %s", resp.StatusCode, msg)
	}
	var a httpAnswer
	if err := json.NewDecoder(resp.Body).Decode(&a); err != nil {
		return false, err
	}
	if s.op == serve.OpSearch {
		return sameBools(a.Found, s.expect), nil
	}
	nb := make([][]core.Neighbor, len(a.Neighbors))
	for i, list := range a.Neighbors {
		for _, n := range list {
			nb[i] = append(nb[i], core.Neighbor{Dist: n.Dist})
		}
	}
	return knnShape(nb, len(s.pts), s.k), nil
}
