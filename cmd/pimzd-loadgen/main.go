// Command pimzd-loadgen drives a running pimzd-serve from the outside:
// closed-loop HTTP/JSON and binary-TCP client workers (bench.ClosedLoop)
// send single-point requests drawn from serve.Stream, the stream the
// in-process saturate panel also draws from, and report throughput, shed
// and error counts, latency quantiles (p50/p99/p999) and per-op server
// stage means (op_stages) as JSON on stdout. It exits 1 if a request
// failed. It first polls the target's /readyz (bounded by -ready-timeout),
// so a server still warming up fails with a clear "never became ready".
//
// -rps caps each worker's pace; a 503 / overloaded wire status counts as
// shed, not as an error. -zipf skews point keys Zipfian over the
// Morton-sorted pool, so against a sharded server (-trees S) the skew
// lands on one shard: the hot-shard storm that exercises the rebalancer.
//
// Usage:
//
//	pimzd-loadgen -http 127.0.0.1:8585 -workers 8 -duration 10s
//	pimzd-loadgen -http 127.0.0.1:8585 -tcp 127.0.0.1:9090 -workers 4 -count 200
//	pimzd-loadgen -http 127.0.0.1:8585 -zipf 1.3 -duration 10s  # hot-shard skew
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"pimzdtree/internal/bench"
	"pimzdtree/internal/serve"
	"pimzdtree/internal/server"
	"pimzdtree/internal/workload"
)

// report is the stdout JSON.
type report struct {
	Workers     int `json:"workers"`
	HTTPWorkers int `json:"http_workers"`
	TCPWorkers  int `json:"tcp_workers"`
	bench.LoadReport
}

// check validates the numeric flags before anything is generated. -k
// outside [1, serve.DefaultMaxK] would fail every knn request the server
// is sent.
func check(zipf float64, n, workers, count, k, dims int) error {
	if zipf != 0 && zipf <= 1 {
		return fmt.Errorf("-zipf must be > 1 (or 0 for uniform)")
	}
	if n < 1 || workers < 1 {
		return fmt.Errorf("-n %d, -workers %d: both must be at least 1", n, workers)
	}
	if count < 0 {
		return fmt.Errorf("-count %d must be at least 0 (0 = run for -duration)", count)
	}
	if k > serve.DefaultMaxK {
		return fmt.Errorf("-k %d: want at most %d", k, serve.DefaultMaxK)
	}
	return errors.Join(server.CheckSize("k", k), server.CheckDims(dims))
}

// waitReady polls base's /readyz until it answers 200, bounded by
// timeout; the error names the last readiness failure.
func waitReady(base string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	c := &http.Client{Timeout: 2 * time.Second}
	last := "no response yet"
	for {
		resp, err := c.Get(base + "/readyz")
		if err != nil {
			last = err.Error()
		} else {
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			last = fmt.Sprintf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("target %s never became ready within %s (last /readyz: %s)", base, timeout, last)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func main() {
	var (
		httpAddr = flag.String("http", "127.0.0.1:8585", "pimzd-serve HTTP address (host:port)")
		tcpAddr  = flag.String("tcp", "", "pimzd-serve wire-protocol TCP address (empty = HTTP only)")
		workers  = flag.Int("workers", 8, "concurrent client workers (split across HTTP and TCP when both set)")
		count    = flag.Int("count", 0, "requests per worker (0 = run for -duration)")
		duration = flag.Duration("duration", 5*time.Second, "run length when -count is 0")
		rps      = flag.Float64("rps", 0, "per-worker pacing cap in requests/second (0 = as fast as responses return)")
		dims     = flag.Int("dims", 3, "point dimensionality (2-4, must match the server)")
		dataset  = flag.String("dataset", "uniform", "point pool shape: uniform, cosmos, osm, varden (match the server for hits)")
		n        = flag.Int("n", 200_000, "point pool size (match the server's -n for search hits)")
		seed     = flag.Int64("seed", 42, "pool + op mix seed (match the server's -seed)")
		mix      = flag.String("mix", serve.DefaultMixSpec, "op weights")
		k        = flag.Int("k", 8, "k for knn requests")
		zipf     = flag.Float64("zipf", 0, "Zipfian query-key skew exponent (> 1; 0 = uniform). Ranks the pool by Morton key, so hot keys concentrate on the low-prefix shard of a -trees server")
		readyFor = flag.Duration("ready-timeout", 30*time.Second, "wait this long for the target's /readyz before starting (0 = skip the readiness check)")
	)
	flag.Parse()
	fail := func(code int, err error) {
		fmt.Fprintln(os.Stderr, "pimzd-loadgen:", err)
		os.Exit(code)
	}
	if err := check(*zipf, *n, *workers, *count, *k, *dims); err != nil {
		fail(2, err)
	}
	ds, err := workload.ParseDataset(*dataset)
	if err != nil {
		fail(2, err)
	}
	opMix, err := serve.ParseMix(*mix)
	if err != nil {
		fail(2, err)
	}
	pool := ds.Generate(*seed, *n, uint8(*dims))
	traffic := serve.NewTraffic(pool, workload.QueryBoxes(*seed+1, pool, 256, 64), opMix, *k, *zipf)
	if *readyFor > 0 {
		if err := waitReady("http://"+*httpAddr, *readyFor); err != nil {
			fail(1, err)
		}
	}

	rep := report{Workers: *workers}
	if *tcpAddr != "" {
		rep.TCPWorkers = max(*workers/2, 1)
	}
	rep.HTTPWorkers = *workers - rep.TCPWorkers
	rep.LoadReport = bench.ClosedLoop{
		Workers: *workers, Count: *count, Duration: *duration, RPS: *rps, Seed: *seed,
		Dial: func(w int) (bench.Doer, error) {
			if w < rep.HTTPWorkers {
				return serve.NewHTTPClient(*httpAddr), nil
			}
			c, err := serve.DialTCP(*tcpAddr, uint8(*dims))
			if err != nil {
				return nil, err
			}
			return c, nil
		},
	}.Run(traffic)

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	enc.Encode(rep)
	if rep.Errors > 0 {
		os.Exit(1)
	}
}
