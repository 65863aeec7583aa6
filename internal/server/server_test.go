package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"pimzdtree/internal/core"
	"pimzdtree/internal/geom"
	"pimzdtree/internal/metrics"
	"pimzdtree/internal/serve"
	"pimzdtree/internal/workload"
)

const testN = 20_000

// testConfig is a single-tree server on ephemeral ports.
func testConfig() Config {
	return Config{
		Addr: "127.0.0.1:0", TCPAddr: "127.0.0.1:0",
		Trees: 1, Modules: 64, Dims: 3,
		Tuning: "throughput", Dataset: "uniform", N: testN, Seed: 42,
		DrainTimeout: 5 * time.Second,
	}
}

// testData is the warmup set a testConfig server stores.
func testData() []geom.Point { return workload.DatasetUniform.Generate(42, testN, 3) }

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// post sends one /v1 request; points are coordinate rows.
func post(url string, pts []geom.Point) (int, string, error) {
	rows := make([][]uint32, len(pts))
	for i, p := range pts {
		rows[i] = p.Coords[:p.Dims]
	}
	body, _ := json.Marshal(map[string]any{"points": rows})
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, string(out), err
}

// TestConfigRejectedBeforeBind: a bad Config must come back as an error
// from Start before the admin listener binds (the parent bound the port,
// wrote -port-file and only then exited from inside the index build). The
// test holds Addr itself: only validation that runs first can report the
// config problem instead of "address already in use".
func TestConfigRejectedBeforeBind(t *testing.T) {
	held, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()

	cases := []struct {
		name string
		edit func(*Config)
		want string
	}{
		{"zero trees", func(c *Config) { c.Trees = 0 }, "trees=0"},
		{"no modules", func(c *Config) { c.Modules = 0 }, "p=0"},
		{"dims too low", func(c *Config) { c.Dims = 1 }, "dims=1"},
		{"dims too high", func(c *Config) { c.Dims = 5 }, "dims=5"},
		{"negative n", func(c *Config) { c.N = -1 }, "n=-1"},
		{"unknown tuning", func(c *Config) { c.Tuning = "fast" }, `unknown tuning "fast"`},
		{"unknown dataset", func(c *Config) { c.Dataset = "mars" }, `unknown dataset "mars"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.Addr = held.Addr().String()
			tc.edit(&cfg)
			s, err := Start(cfg)
			if err == nil {
				s.Shutdown()
				t.Fatal("Start accepted the config")
			}
			if !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "config") {
				t.Fatalf("Start error %q, want a config error mentioning %q", err, tc.want)
			}
		})
	}

	// The control: a valid config does reach the bind and fails there.
	cfg := testConfig()
	cfg.Addr = held.Addr().String()
	if s, err := Start(cfg); err == nil {
		s.Shutdown()
		t.Fatal("Start bound an address the test holds")
	} else if !strings.Contains(err.Error(), "admin listener") {
		t.Fatalf("valid config on a held port: %v, want the bind error", err)
	}
}

// TestServerLifecycle boots the index unsharded and sharded on :0 and
// walks the whole surface: warmup probes, client APIs on both transports,
// every snapshot endpoint, the fixed SLO table, and /snapshot/tree scrapes
// racing an insert stream (the index's own lock orders them; run under
// -race).
func TestServerLifecycle(t *testing.T) {
	data := testData()
	cases := []struct {
		name string
		edit func(*Config)
	}{
		{"trees1", func(*Config) {}},
		{"trees4", func(c *Config) { c.Trees = 4 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			tc.edit(&cfg)
			build := make(chan struct{})
			s, err := start(cfg, func() { <-build })
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := s.Shutdown(); err != nil {
					t.Errorf("shutdown: %v", err)
				}
			}()
			base := "http://" + s.Addr()

			// Warming: alive, not ready, index-backed handlers answer 503.
			if code, _ := get(t, base+"/healthz"); code != 200 {
				t.Fatalf("/healthz while warming: %d", code)
			}
			if code, body := get(t, base+"/readyz"); code != 503 {
				t.Fatalf("/readyz while warming: %d %s", code, body)
			}
			if code, _, err := post(base+"/v1/search", data[:1]); err != nil || code != 503 {
				t.Fatalf("/v1/search while warming: %d %v", code, err)
			}
			close(build)
			if err := s.WaitReady(); err != nil {
				t.Fatal(err)
			}
			if code, body := get(t, base+"/readyz"); code != 200 {
				t.Fatalf("/readyz after WaitReady: %d %s", code, body)
			}

			// Client APIs: HTTP and the wire protocol see the stored data.
			code, body, err := post(base+"/v1/search", []geom.Point{data[0], {Dims: 3, Coords: [4]uint32{1, 2, 3}}})
			if err != nil || code != 200 || !strings.Contains(body, `"found":[true,false]`) {
				t.Fatalf("/v1/search: %d %s %v", code, body, err)
			}
			cl, err := serve.DialTCP(s.TCPAddr(), 3)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			r := &serve.Request{Op: serve.OpKNN, Pts: data[1:2], K: 2}
			if err := cl.Do(r); err != nil || len(r.Resp.Neighbors) != 1 || r.Resp.Neighbors[0][0].Dist != 0 {
				t.Fatalf("tcp knn: err=%v resp=%+v", err, r.Resp.Neighbors)
			}

			// Snapshots: every source is always on.
			for _, path := range []string{
				"/snapshot/tree", "/snapshot/modules", "/snapshot/shards",
				"/snapshot/flightrecorder", "/snapshot/slowrequests", "/snapshot/slo",
			} {
				if code, body := get(t, base+path); code != 200 || !json.Valid([]byte(body)) {
					t.Errorf("%s: %d, want 200 with JSON: %.80s", path, code, body)
				}
			}

			// The SLO table is fixed: 50 ms for point ops, 100 ms for kNN
			// and box, each at 99% (the snapshot sorts by op).
			_, body = get(t, base+"/snapshot/slo")
			var slo metrics.SLOSnapshot
			if err := json.Unmarshal([]byte(body), &slo); err != nil {
				t.Fatalf("/snapshot/slo: %v: %.80s", err, body)
			}
			var objs []string
			for _, o := range slo.Objectives {
				objs = append(objs, fmt.Sprintf("%s=%g:%g", o.Op, o.LatencySeconds*1e3, o.Target))
			}
			if got, want := strings.Join(objs, ","), "box=100:0.99,delete=50:0.99,insert=50:0.99,knn=100:0.99,search=50:0.99"; got != want {
				t.Errorf("/snapshot/slo objectives %s, want %s", got, want)
			}
			if code, body := get(t, base+"/metrics"); code != 200 || !strings.Contains(body, "pimzd_build_info{") {
				t.Errorf("/metrics: %d, build_info present=%v", code, strings.Contains(body, "pimzd_build_info{"))
			}

			// /snapshot/tree: one core.Stats per shard, together holding
			// every stored point (nothing is inserted yet: the warmup set).
			_, body = get(t, base+"/snapshot/tree")
			var trees []core.Stats
			if err := json.Unmarshal([]byte(body), &trees); err != nil {
				t.Fatalf("/snapshot/tree: %v: %.80s", err, body)
			}
			points := 0
			for _, st := range trees {
				points += st.Points
			}
			if len(trees) != cfg.Trees || points != testN {
				t.Errorf("/snapshot/tree: %d shards holding %d points, want %d holding %d",
					len(trees), points, cfg.Trees, testN)
			}

			// /snapshot/tree walks tree internals while update batches
			// mutate them; the scrape and the batch must exclude each other.
			var wg sync.WaitGroup
			stop := make(chan struct{})
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					pts := make([]geom.Point, 64)
					for j := range pts {
						pts[j] = geom.Point{Dims: 3, Coords: [4]uint32{uint32(i), uint32(j), 77}}
					}
					if code, body, err := post(base+"/v1/insert", pts); err != nil || code != 200 {
						t.Errorf("insert stream: %d %s %v", code, body, err)
						return
					}
				}
			}()
			for i := 0; i < 10; i++ {
				if code, body := get(t, base+"/snapshot/tree"); code != 200 || !json.Valid([]byte(body)) {
					t.Errorf("/snapshot/tree during inserts: %d %.80s", code, body)
				}
			}
			close(stop)
			wg.Wait()
		})
	}
}

// shardPointsTotal sums pimzd_shard_points over shards from /metrics.
func shardPointsTotal(t *testing.T, base string) int {
	t.Helper()
	_, body := get(t, base+"/metrics")
	total, seen := 0, false
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, "pimzd_shard_points{"); ok {
			v, err := strconv.ParseFloat(rest[strings.LastIndexByte(rest, ' ')+1:], 64)
			if err != nil {
				t.Fatalf("bad sample %q: %v", line, err)
			}
			total, seen = total+int(v), true
		}
	}
	if !seen {
		t.Fatal("no pimzd_shard_points samples in /metrics")
	}
	return total
}

// TestShardGaugesFollowClientTraffic: the per-shard gauges refresh from
// the server's own wall ticker. (The parent refreshed them only from the
// synthetic workload loop, so a server that saw nothing but client traffic
// exported its boot-time values forever.) The families exist at every
// shard count, the unsharded index included.
func TestShardGaugesFollowClientTraffic(t *testing.T) {
	for _, trees := range []int{1, 4} {
		t.Run(fmt.Sprintf("trees%d", trees), func(t *testing.T) {
			cfg := testConfig()
			cfg.Trees, cfg.N, cfg.TCPAddr = trees, 8000, ""
			s, err := Start(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Shutdown()
			if err := s.WaitReady(); err != nil {
				t.Fatal(err)
			}
			base := "http://" + s.Addr()
			if got := shardPointsTotal(t, base); got != cfg.N {
				t.Fatalf("pimzd_shard_points at boot sums to %d, want %d", got, cfg.N)
			}

			fresh := make([]geom.Point, 500)
			for i := range fresh {
				fresh[i] = geom.Point{Dims: 3, Coords: [4]uint32{uint32(i), 9, 9}}
			}
			if code, body, err := post(base+"/v1/insert", fresh); err != nil || code != 200 {
				t.Fatalf("insert: %d %s %v", code, body, err)
			}
			want := cfg.N + len(fresh)
			deadline := time.Now().Add(3 * time.Second) // two 1 s ticks and slack
			for shardPointsTotal(t, base) != want {
				if time.Now().After(deadline) {
					t.Fatalf("pimzd_shard_points still sums to %d two ticks after inserting %d points, want %d",
						shardPointsTotal(t, base), len(fresh), want)
				}
				time.Sleep(50 * time.Millisecond)
			}
		})
	}
}

// TestShutdownOrder drives the SIGTERM path stage by stage: engine first
// (late requests get 503 / shutdown frames while both listeners still
// answer), then the TCP listener, then the dumps, then the admin server.
func TestShutdownOrder(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.N = 5000
	cfg.FlightOut = filepath.Join(dir, "flight.json")
	cfg.RequestsOut = filepath.Join(dir, "requests.json")
	s, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WaitReady(); err != nil {
		t.Fatal(err)
	}
	base, tcpAddr := "http://"+s.Addr(), s.TCPAddr()
	data := workload.DatasetUniform.Generate(42, cfg.N, 3)
	if code, body, err := post(base+"/v1/search", data[:4]); err != nil || code != 200 {
		t.Fatalf("search before shutdown: %d %s %v", code, body, err)
	}
	cl, err := serve.DialTCP(tcpAddr, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	noDumps := func(stage string) {
		for _, p := range []string{cfg.FlightOut, cfg.RequestsOut} {
			if _, err := os.Stat(p); err == nil {
				t.Errorf("after %s: %s already written", stage, filepath.Base(p))
			}
		}
	}
	var stages []string
	err = s.shutdown(func(stage string) {
		stages = append(stages, stage)
		switch stage {
		case "engine":
			if code, _ := get(t, base+"/readyz"); code != 503 {
				t.Errorf("after engine: /readyz %d, want 503", code)
			}
			if code, _ := get(t, base+"/healthz"); code != 200 {
				t.Errorf("after engine: /healthz %d, want 200", code)
			}
			if code, body, err := post(base+"/v1/search", data[:1]); err != nil || code != 503 {
				t.Errorf("after engine: late /v1/search %d %s %v, want 503", code, body, err)
			}
			var werr *serve.WireError
			r := &serve.Request{Op: serve.OpSearch, Pts: data[:1]}
			if err := cl.Do(r); !errors.As(err, &werr) || !strings.Contains(werr.Msg, "shutting down") {
				t.Errorf("after engine: late wire search %v, want a shutdown frame", err)
			}
			cl.Close() // or the TCP drain would wait out its deadline on us
			noDumps(stage)
		case "tcp":
			if c, err := serve.DialTCP(tcpAddr, 3); err == nil {
				c.Close()
				t.Error("after tcp: wire listener still accepting")
			}
			noDumps(stage)
		case "dumps":
			for _, p := range []string{cfg.FlightOut, cfg.RequestsOut} {
				if b, err := os.ReadFile(p); err != nil || !json.Valid(b) {
					t.Errorf("after dumps: %s: err=%v valid=%v", filepath.Base(p), err, json.Valid(b))
				}
			}
			if code, _ := get(t, base+"/healthz"); code != 200 {
				t.Errorf("after dumps: /healthz %d, want the admin server still up", code)
			}
		case "admin":
			if resp, err := http.Get(base + "/healthz"); err == nil {
				resp.Body.Close()
				t.Error("after admin: admin listener still answering")
			}
		}
	})
	if err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if got, want := fmt.Sprint(stages), "[engine tcp dumps admin]"; got != want {
		t.Fatalf("shutdown stages %s, want %s", got, want)
	}
}

// TestShutdownDuringWarmup: a stop request racing the build waits for it
// and then drains normally; Shutdown is idempotent.
func TestShutdownDuringWarmup(t *testing.T) {
	s, err := Start(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(); err != nil {
		t.Fatalf("shutdown during warmup: %v", err)
	}
	if err := s.Shutdown(); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
	if resp, err := http.Get("http://" + s.Addr() + "/healthz"); err == nil {
		resp.Body.Close()
		t.Fatal("admin listener still answering after Shutdown")
	}
}
