package metrics_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"pimzdtree/internal/core"
	"pimzdtree/internal/costmodel"
	"pimzdtree/internal/metrics"
	"pimzdtree/internal/obs"
	"pimzdtree/internal/workload"
)

// TestFlightEndpointsUnderLoad scrapes /snapshot/flightrecorder and
// /metrics while batches run — the race detector (make race) is the
// point: snapshot publication and scraping must not share unsynchronized
// state with the recording path.
func TestFlightEndpointsUnderLoad(t *testing.T) {
	machine := costmodel.UPMEMServer()
	machine.PIMModules = 64

	reg := metrics.New()
	rec := obs.New()
	rec.SetRetainEvents(false)
	rec.SetSink(metrics.NewObsSink(reg))
	flight := obs.NewFlightRecorder(obs.FlightConfig{Ring: 32, SlowK: 4})
	rec.SetFlight(flight)

	pts := workload.Uniform(13, 3000, 3)
	tree := core.New(core.Config{
		Dims: 3, Machine: machine, Tuning: core.ThroughputOptimized, Obs: rec,
	}, pts[:2000])

	srv := httptest.NewServer(metrics.NewAdminHandler(metrics.AdminConfig{
		Registry: reg,
		Flight:   flight,
	}))
	defer srv.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			tree.Search(pts[:200])
			tree.KNN(pts[:50], 4)
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for _, path := range []string{"/snapshot/flightrecorder", "/metrics?exemplars=1"} {
					resp, err := http.Get(srv.URL + path)
					if err != nil {
						t.Errorf("%s: %v", path, err)
						return
					}
					body, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode != 200 {
						t.Errorf("%s: status %d", path, resp.StatusCode)
						return
					}
					if path == "/snapshot/flightrecorder" {
						var d obs.FlightDump
						if err := json.Unmarshal(body, &d); err != nil {
							t.Errorf("%s: decode: %v", path, err)
							return
						}
						if d.Format != obs.FlightDumpFormat {
							t.Errorf("%s: format %q", path, d.Format)
							return
						}
					}
				}
			}
		}()
	}
	<-done
	wg.Wait()

	// After the load finishes the ring must hold real records.
	resp, err := http.Get(srv.URL + "/snapshot/flightrecorder")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var d obs.FlightDump
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatal(err)
	}
	if len(d.Ring) == 0 || d.Captured < int64(len(d.Ring)) {
		t.Fatalf("implausible dump after load: captured %d, ring %d", d.Captured, len(d.Ring))
	}

	// The captured ops must surface as trace_id exemplars on the latency
	// histogram — the flight-record/exposition join the feature exists for.
	resp, err = http.Get(srv.URL + "/metrics?exemplars=1")
	if err != nil {
		t.Fatal(err)
	}
	expo, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(expo, []byte(`trace_id="`)) {
		t.Fatalf("no exemplars in flagged exposition:\n%.2000s", expo)
	}
	if err := metrics.LintText(bytes.NewReader(expo)); err != nil {
		t.Fatalf("exemplar exposition lint: %v", err)
	}

	// Without a flight recorder the endpoint 404s.
	bare := httptest.NewServer(metrics.NewAdminHandler(metrics.AdminConfig{Registry: reg}))
	defer bare.Close()
	resp, err = http.Get(bare.URL + "/snapshot/flightrecorder")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("bare /snapshot/flightrecorder: %d, want 404", resp.StatusCode)
	}
}
