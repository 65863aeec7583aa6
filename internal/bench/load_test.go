package bench

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"

	"pimzdtree/internal/core"
	"pimzdtree/internal/serve"
	"pimzdtree/internal/workload"
)

// TestClosedLoopOverHTTPAndTCP: a closed-loop run against a live engine
// through both clients completes every request, and the report carries
// the stage decompositions the server echoed.
func TestClosedLoopOverHTTPAndTCP(t *testing.T) {
	p := Params{Seed: 42, WarmupN: 10_000, Dims: 3, P: 64}
	p.fill()
	data := workload.Uniform(p.Seed, p.WarmupN, p.Dims)
	e := serve.New(serve.Config{Backend: serve.NewTreeBackend(newPIMRunner(p, core.ThroughputOptimized, data, nil).tree)})
	defer e.Shutdown(context.Background())
	srv := httptest.NewServer(serve.NewHTTPHandler(e))
	defer srv.Close()
	ts, err := serve.ServeTCP("127.0.0.1:0", e)
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Shutdown(context.Background())

	traffic := serve.NewTraffic(data, workload.QueryBoxes(43, data, 64, 32), serve.DefaultMix, 8, 0)
	rep := ClosedLoop{Workers: 4, Count: 50, Seed: 42, Dial: func(w int) (Doer, error) {
		if w%2 == 0 {
			return serve.NewHTTPClient(strings.TrimPrefix(srv.URL, "http://")), nil
		}
		c, err := serve.DialTCP(ts.Addr(), 3)
		if err != nil {
			return nil, err
		}
		return c, nil
	}}.Run(traffic)

	if rep.Completed != 200 || rep.Shed != 0 || rep.Errors != 0 {
		t.Fatalf("completed %d, shed %d, errors %d (%s); want 200, 0, 0", rep.Completed, rep.Shed, rep.Errors, rep.LastError)
	}
	if !(rep.Seconds > 0 && rep.AchievedRPS > 0 && rep.P50 > 0 && rep.P50 <= rep.P99 && rep.P99 <= rep.P999) {
		t.Fatalf("bad timing summary: %+v", rep.LoadStats)
	}
	stages := 0
	for op, s := range rep.OpStages {
		if s.Count < 1 || len(s.MeanSeconds) != serve.NumStages || !(s.TotalMeanSeconds > 0) {
			t.Fatalf("op %s stage summary %+v", op, s)
		}
		stages += s.Count
	}
	if rep.OpStages["search"].Count == 0 || stages != rep.Completed {
		t.Fatalf("stage summaries cover %d of %d requests: %+v", stages, rep.Completed, rep.OpStages)
	}
}

// scriptedDoer answers request i with script[i] (nil past its end).
type scriptedDoer struct {
	script []error
	calls  int
	closed bool
}

func (d *scriptedDoer) Do(r *serve.Request) error {
	defer func() { d.calls++ }()
	if d.calls < len(d.script) {
		r.Resp.Err = d.script[d.calls]
		return r.Resp.Err
	}
	return nil
}

func (d *scriptedDoer) Close() error {
	d.closed = true
	return nil
}

// TestClosedLoopCountsRefusals: an Overloaded refusal is shed, any other
// refusal an error the worker carries on after, and a transport error ends
// the worker; a worker that cannot dial counts one error.
func TestClosedLoopCountsRefusals(t *testing.T) {
	data := workload.Uniform(1, 100, 3)
	traffic := serve.NewTraffic(data, workload.QueryBoxes(2, data, 8, 4), serve.DefaultMix, 4, 0)
	overloaded := &serve.WireError{Status: 2} // wire status 2: overloaded
	refused := &serve.WireError{Status: 1, Msg: "bad request"}
	reset := errors.New("connection reset")
	d := &scriptedDoer{script: []error{nil, overloaded, refused, nil, overloaded, reset}}
	rep := ClosedLoop{Workers: 2, Count: 10, Seed: 1, Dial: func(w int) (Doer, error) {
		if w == 1 {
			return nil, errors.New("dial refused")
		}
		return d, nil
	}}.Run(traffic)

	if d.calls != 6 || !d.closed {
		t.Fatalf("worker made %d calls (closed %v), want 6: a transport error ends it", d.calls, d.closed)
	}
	if rep.Completed != 2 || rep.Shed != 2 || rep.Errors != 3 {
		t.Fatalf("completed %d, shed %d, errors %d; want 2, 2, 3", rep.Completed, rep.Shed, rep.Errors)
	}
}
