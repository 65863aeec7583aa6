// Command pimzd-loadgen drives a running pimzd-serve from the outside:
// parallel HTTP/JSON and binary-TCP client workers submit a mixed
// single-point workload and report achieved throughput, shed rate, and
// end-to-end latency quantiles (p50/p99/p999) as JSON on stdout.
//
// Before starting, the generator polls the target's /readyz until it
// answers 200 (bounded by -ready-timeout), so races against a server
// still warming up fail with a clear "never became ready" error instead
// of a pile of connection refusals. Every request carries a client
// request ID; the server echoes its pipeline stage decomposition back
// with the response, and the report aggregates those into per-op
// server-side stage-latency summaries (op_stages).
//
// It is the network-path counterpart of the in-process saturation bench
// (pimzd-bench -experiment saturate): use this to smoke the full client
// path — JSON decode, intake, coalescing, epoch execution, response
// encode — under concurrent load, and the bench to measure the engine
// itself without network noise.
//
// Workers are closed-loop (each waits for its response before the next
// request), so offered load self-throttles at saturation; -rps adds an
// optional per-worker pacing cap. A 503 / overloaded wire status counts
// as shed, not as an error.
//
// -zipf skews point-op keys Zipfian over the Morton-key-sorted pool, so
// the hottest ranks share one contiguous key prefix: against a sharded
// server (pimzd-serve -trees S) the skew lands on a single shard, the
// hot-shard storm that exercises the rebalancer.
//
// Usage:
//
//	pimzd-loadgen -http 127.0.0.1:8585 -workers 8 -duration 10s
//	pimzd-loadgen -http 127.0.0.1:8585 -tcp 127.0.0.1:9090 -workers 4 -count 200
//	pimzd-loadgen -http 127.0.0.1:8585 -zipf 1.3 -duration 10s  # hot-shard skew
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"pimzdtree/internal/geom"
	"pimzdtree/internal/morton"
	"pimzdtree/internal/serve"
	"pimzdtree/internal/workload"
)

// workerStats is one worker's tally, merged after the run.
type workerStats struct {
	completed int
	shed      int
	errs      int
	lastErr   string
	latencies []float64
	stages    map[string]*stageAgg
}

// stageAgg accumulates the server-echoed stage decomposition for one op.
type stageAgg struct {
	count int
	sums  [serve.NumStages]float64
}

// note records one echoed decomposition (skipped when the server sent
// none — all-zero stages on a completed request).
func (s *workerStats) note(r *serve.Request) {
	var total int64
	for _, ns := range r.Resp.StageNanos {
		total += ns
	}
	if total == 0 {
		return
	}
	if s.stages == nil {
		s.stages = make(map[string]*stageAgg)
	}
	op := r.Op.String()
	agg := s.stages[op]
	if agg == nil {
		agg = &stageAgg{}
		s.stages[op] = agg
	}
	agg.count++
	for i, ns := range r.Resp.StageNanos {
		agg.sums[i] += float64(ns) / 1e9
	}
}

// stageSummary is the per-op server-side stage-latency block in the
// report: mean seconds per pipeline stage over requests that echoed a
// decomposition.
type stageSummary struct {
	Count            int                `json:"count"`
	MeanSeconds      map[string]float64 `json:"mean_seconds"`
	TotalMeanSeconds float64            `json:"total_mean_seconds"`
}

// report is the stdout JSON.
type report struct {
	Workers     int     `json:"workers"`
	HTTPWorkers int     `json:"http_workers"`
	TCPWorkers  int     `json:"tcp_workers"`
	Seconds     float64 `json:"seconds"`
	Completed   int     `json:"completed"`
	Shed        int     `json:"shed"`
	Errors      int     `json:"errors"`
	LastError   string  `json:"last_error,omitempty"`
	AchievedRPS float64 `json:"achieved_rps"`
	P50         float64 `json:"p50_seconds"`
	P99         float64 `json:"p99_seconds"`
	P999        float64 `json:"p999_seconds"`

	// OpStages holds per-op server-side stage-latency summaries built
	// from the stage decompositions the server echoes for requests that
	// carry a client request ID.
	OpStages map[string]stageSummary `json:"op_stages,omitempty"`
}

// client sends one request and reports (shed, error).
type client interface {
	do(r *serve.Request) (shed bool, err error)
	close()
}

// httpClient drives the /v1 JSON API.
type httpClient struct {
	base string
	c    *http.Client
}

func (h *httpClient) close() {}

func (h *httpClient) do(r *serve.Request) (bool, error) {
	var path string
	body := map[string]any{}
	if r.ID != 0 {
		body["id"] = r.ID
	}
	switch r.Op {
	case serve.OpSearch:
		path = "/v1/search"
	case serve.OpInsert:
		path = "/v1/insert"
	case serve.OpDelete:
		path = "/v1/delete"
	case serve.OpKNN:
		path = "/v1/knn"
		body["k"] = r.K
	case serve.OpBox:
		path = "/v1/box"
	}
	if len(r.Pts) > 0 {
		rows := make([][]uint32, len(r.Pts))
		for i, p := range r.Pts {
			rows[i] = p.Coords[:p.Dims]
		}
		body["points"] = rows
	}
	if len(r.Boxes) > 0 {
		rows := make([]map[string][]uint32, len(r.Boxes))
		for i, b := range r.Boxes {
			rows[i] = map[string][]uint32{"lo": b.Lo.Coords[:b.Lo.Dims], "hi": b.Hi.Coords[:b.Hi.Dims]}
		}
		body["boxes"] = rows
	}
	payload, err := json.Marshal(body)
	if err != nil {
		return false, err
	}
	resp, err := h.c.Post(h.base+path, "application/json", bytes.NewReader(payload))
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusOK:
		// Recover the server's stage echo (requests with an ID only);
		// decode failures are ignored — the request itself succeeded.
		var hr struct {
			StageSeconds map[string]float64 `json:"stage_seconds"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&hr); err == nil && r.ID != 0 {
			for s, name := range serve.StageNames {
				r.Resp.StageNanos[s] = int64(hr.StageSeconds[name] * 1e9)
			}
		}
		drain(resp.Body)
		return false, nil
	case resp.StatusCode == http.StatusServiceUnavailable:
		drain(resp.Body)
		return true, nil
	default:
		drain(resp.Body)
		return false, fmt.Errorf("http %s: status %d", path, resp.StatusCode)
	}
}

// drain consumes the rest of a response body so the connection is reused.
func drain(r io.Reader) {
	var sink [512]byte
	for {
		if _, err := r.Read(sink[:]); err != nil {
			return
		}
	}
}

// waitReady polls the target's /readyz until it answers 200, bounded by
// timeout. The returned error names the last readiness failure so a
// target that never comes up is diagnosable from the loadgen side alone.
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

// tcpClient drives the binary wire protocol.
type tcpClient struct{ c *serve.Client }

func (t *tcpClient) close() { t.c.Close() }

func (t *tcpClient) do(r *serve.Request) (bool, error) {
	err := t.c.Do(r)
	if err == nil {
		return false, nil
	}
	if we, ok := err.(*serve.WireError); ok && we.Overloaded() {
		return true, nil
	}
	return false, err
}

func main() {
	var (
		httpAddr = flag.String("http", "127.0.0.1:8585", "pimzd-serve HTTP address (host:port)")
		tcpAddr  = flag.String("tcp", "", "pimzd-serve wire-protocol TCP address (empty = HTTP only)")
		workers  = flag.Int("workers", 8, "concurrent client workers (split across HTTP and TCP when both set)")
		count    = flag.Int("count", 0, "requests per worker (0 = run for -duration)")
		duration = flag.Duration("duration", 5*time.Second, "run length when -count is 0")
		rps      = flag.Float64("rps", 0, "per-worker pacing cap in requests/second (0 = as fast as responses return)")
		dims     = flag.Int("dims", 3, "point dimensionality (must match the server)")
		dataset  = flag.String("dataset", "uniform", "point pool shape: uniform, cosmos, osm (match the server for hits)")
		n        = flag.Int("n", 200_000, "point pool size (match the server's -n for search hits)")
		seed     = flag.Int64("seed", 42, "pool + op mix seed (match the server's -seed)")
		mix      = flag.String("mix", "search=70,insert=15,delete=5,knn=8,box=2", "op weights")
		k        = flag.Int("k", 8, "k for knn requests")
		zipf     = flag.Float64("zipf", 0, "Zipfian query-key skew exponent (> 1; 0 = uniform). Ranks the pool by Morton key, so hot keys concentrate on the low-prefix shard of a -trees server")
		readyFor = flag.Duration("ready-timeout", 30*time.Second, "wait this long for the target's /readyz before starting (0 = skip the readiness check)")
	)
	flag.Parse()
	if *zipf != 0 && *zipf <= 1 {
		fmt.Fprintln(os.Stderr, "pimzd-loadgen: -zipf must be > 1 (or 0 for uniform)")
		os.Exit(2)
	}
	if *n < 1 || *workers < 1 {
		fmt.Fprintf(os.Stderr, "pimzd-loadgen: -n %d, -workers %d: both must be at least 1\n", *n, *workers)
		os.Exit(2)
	}

	var ds workload.Dataset
	switch *dataset {
	case "uniform":
		ds = workload.DatasetUniform
	case "cosmos":
		ds = workload.DatasetCosmos
	case "osm":
		ds = workload.DatasetOSM
	default:
		fmt.Fprintf(os.Stderr, "unknown dataset %q\n", *dataset)
		os.Exit(2)
	}
	opMix, err := parseMix(*mix, *k)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pimzd-loadgen: %v\n", err)
		os.Exit(2)
	}

	pool := ds.Generate(*seed, *n, uint8(*dims))
	boxes := workload.QueryBoxes(*seed+1, pool, 256, 64)
	if *zipf > 1 {
		// Zipf ranks index the key-sorted pool: rank 0 (the hottest) is
		// the lowest Morton key, so the traffic skew lands on one
		// contiguous prefix range — the hot-shard storm the sharded
		// server's rebalancer is built for.
		keys := make([]uint64, len(pool))
		order := make([]int, len(pool))
		for i, p := range pool {
			keys[i] = morton.EncodePoint(p)
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return keys[order[a]] < keys[order[b]] })
		sorted := make([]geom.Point, len(pool))
		for i, j := range order {
			sorted[i] = pool[j]
		}
		pool = sorted
	}

	if *readyFor > 0 {
		if err := waitReady("http://"+*httpAddr, *readyFor); err != nil {
			fmt.Fprintf(os.Stderr, "pimzd-loadgen: %v\n", err)
			os.Exit(1)
		}
	}

	nTCP := 0
	if *tcpAddr != "" {
		nTCP = *workers / 2
		if nTCP == 0 {
			nTCP = 1
		}
	}
	nHTTP := *workers - nTCP

	stats := make([]workerStats, *workers)
	var wg sync.WaitGroup
	start := time.Now()
	stopAt := start.Add(*duration)
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var cl client
			if w < nHTTP {
				cl = &httpClient{base: "http://" + *httpAddr, c: &http.Client{Timeout: 30 * time.Second}}
			} else {
				tc, err := serve.DialTCP(*tcpAddr, uint8(*dims))
				if err != nil {
					stats[w].errs++
					stats[w].lastErr = err.Error()
					return
				}
				cl = &tcpClient{c: tc}
			}
			defer cl.close()
			rng := rand.New(rand.NewSource(*seed + int64(w)*1297))
			pick := func() geom.Point { return pool[rng.Intn(len(pool))] }
			if *zipf > 1 {
				z := rand.NewZipf(rng, *zipf, 1, uint64(len(pool)-1))
				pick = func() geom.Point { return pool[z.Uint64()] }
			}
			var interval time.Duration
			if *rps > 0 {
				interval = time.Duration(float64(time.Second) / *rps)
			}
			next := time.Now()
			for i := 0; ; i++ {
				if *count > 0 && i >= *count {
					return
				}
				if *count == 0 && time.Now().After(stopAt) {
					return
				}
				if interval > 0 {
					if d := time.Until(next); d > 0 {
						time.Sleep(d)
					}
					next = next.Add(interval)
				}
				r := makeRequest(opMix, rng, pick, boxes)
				// Nonzero per-worker IDs make the server echo the stage
				// decomposition and make outliers greppable in its
				// /snapshot/slowrequests capture.
				r.ID = uint64(w)<<32 | uint64(i) + 1
				t0 := time.Now()
				shed, err := cl.do(r)
				switch {
				case err != nil:
					stats[w].errs++
					stats[w].lastErr = err.Error()
					if _, ok := cl.(*tcpClient); ok {
						return // transport errors poison the TCP connection
					}
				case shed:
					stats[w].shed++
				default:
					stats[w].completed++
					stats[w].latencies = append(stats[w].latencies, time.Since(t0).Seconds())
					stats[w].note(r)
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	rep := report{Workers: *workers, HTTPWorkers: nHTTP, TCPWorkers: nTCP, Seconds: elapsed}
	var all []float64
	merged := map[string]*stageAgg{}
	for _, s := range stats {
		rep.Completed += s.completed
		rep.Shed += s.shed
		rep.Errors += s.errs
		if s.lastErr != "" {
			rep.LastError = s.lastErr
		}
		all = append(all, s.latencies...)
		for op, agg := range s.stages {
			m := merged[op]
			if m == nil {
				m = &stageAgg{}
				merged[op] = m
			}
			m.count += agg.count
			for i := range m.sums {
				m.sums[i] += agg.sums[i]
			}
		}
	}
	if len(merged) > 0 {
		rep.OpStages = make(map[string]stageSummary, len(merged))
		for op, agg := range merged {
			sum := stageSummary{Count: agg.count, MeanSeconds: make(map[string]float64, serve.NumStages)}
			for i, name := range serve.StageNames {
				mean := agg.sums[i] / float64(agg.count)
				sum.MeanSeconds[name] = mean
				sum.TotalMeanSeconds += mean
			}
			rep.OpStages[op] = sum
		}
	}
	rep.AchievedRPS = float64(rep.Completed) / elapsed
	sort.Float64s(all)
	q := func(p float64) float64 {
		if len(all) == 0 {
			return 0
		}
		return all[int(p*float64(len(all)-1))]
	}
	rep.P50, rep.P99, rep.P999 = q(0.50), q(0.99), q(0.999)

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	enc.Encode(rep)
	if rep.Errors > 0 {
		os.Exit(1)
	}
}

// loadMix is a parsed op-weight table.
type loadMix struct {
	ops     []serve.Op
	weights []int
	total   int
	k       int
}

func parseMix(s string, k int) (loadMix, error) {
	m := loadMix{k: k}
	names := map[string]serve.Op{
		"search": serve.OpSearch, "insert": serve.OpInsert, "delete": serve.OpDelete,
		"knn": serve.OpKNN, "box": serve.OpBox,
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return m, fmt.Errorf("bad mix entry %q (want op=weight)", part)
		}
		op, known := names[strings.TrimSpace(name)]
		if !known {
			return m, fmt.Errorf("unknown op %q in mix", name)
		}
		w, err := strconv.Atoi(strings.TrimSpace(val))
		if err != nil || w < 0 {
			return m, fmt.Errorf("bad weight %q for %s", val, name)
		}
		m.ops = append(m.ops, op)
		m.weights = append(m.weights, w)
		m.total += w
	}
	if m.total == 0 {
		return m, fmt.Errorf("mix has zero total weight")
	}
	return m, nil
}

func (m loadMix) draw(rng *rand.Rand) serve.Op {
	n := rng.Intn(m.total)
	for i, w := range m.weights {
		if n -= w; n < 0 {
			return m.ops[i]
		}
	}
	return m.ops[len(m.ops)-1]
}

func makeRequest(m loadMix, rng *rand.Rand, pick func() geom.Point, boxes []geom.Box) *serve.Request {
	op := m.draw(rng)
	r := serve.NewRequest(op)
	switch op {
	case serve.OpBox:
		r.Boxes = []geom.Box{boxes[rng.Intn(len(boxes))]}
	case serve.OpKNN:
		r.Pts = []geom.Point{pick()}
		r.K = m.k
	default:
		r.Pts = []geom.Point{pick()}
	}
	return r
}
