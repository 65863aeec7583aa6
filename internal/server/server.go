// Package server is the composition root of pimzd-serve: it turns a
// Config into a running index server — metrics registry, recorders, admin
// listener, warmup build, serving engine, wire-protocol listener — and
// tears it down again in drain order. cmd/pimzd-serve is flag parsing and
// a signal wait around it.
//
// Observability has one setup, the one the serve-mixed benchmark
// measures: module load profiles every 32 rounds, a flight recorder
// keeping the last 256 ops and the 16 slowest by modeled time, the 16
// slowest requests by wall time, and a fixed latency SLO table (50 ms for
// search, insert and delete, 100 ms for kNN and box, each at 99%).
//
// The index is a shard.Index at every Trees value, one router path at
// every S, and all access to it flows through the epoch-pipelined serving
// engine (internal/serve). Client APIs:
//
//	POST /v1/{search,insert,delete,knn,box}   HTTP/JSON (admin listener)
//	GET  /v1/status                           engine snapshot
//	Config.TCPAddr                            length-prefixed binary frames
//	                                          (see internal/serve wire.go)
//
// Admin/observability endpoints (same listener as /v1):
//
//	/metrics                  Prometheus text exposition v0.0.4: modeled
//	                          tree counters plus Wall-marked serving
//	                          families — per-request latency and per-stage
//	                          histograms, intake queue depth, epoch
//	                          occupancy, shed counters, SLO burn rates
//	                          (?modeled=1 for the deterministic subset,
//	                          ?exemplars=1 for trace exemplars)
//	/healthz                  liveness probe (ok as soon as the admin
//	                          listener is up, even while warming)
//	/readyz                   readiness probe (503 until the warmup build
//	                          published and the engine accepts requests;
//	                          503 again once shutdown begins)
//	/snapshot/tree            JSON structural tree statistics, one
//	                          core.Stats per shard in shard order
//	/snapshot/modules         JSON per-module cumulative load heatmap
//	                          (S racks concatenated in shard order)
//	/snapshot/shards          JSON per-shard layout, load windows and
//	                          migration counters
//	/snapshot/flightrecorder  JSON per-op flight-recorder dump: the ring
//	                          of recent ops and the slow-op set with full
//	                          round detail
//	/snapshot/slowrequests    JSON slow-request capture: per-request stage
//	                          decomposition, flight trace IDs, cross-shard
//	                          fan-out spans (feed to
//	                          `pimzd-trace analyze -requests`)
//	/snapshot/slo             JSON SLO status: rolling 1m/5m/1h error and
//	                          burn rates per latency objective
//	/debug/pprof/             Go runtime profiles
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pimzdtree/internal/core"
	"pimzdtree/internal/costmodel"
	"pimzdtree/internal/metrics"
	"pimzdtree/internal/obs"
	"pimzdtree/internal/serve"
	"pimzdtree/internal/shard"
	"pimzdtree/internal/workload"
)

// Config describes one server process. Validation happens in Start, before
// any listener binds.
type Config struct {
	// Addr is the admin+client HTTP listen address (host:0 = ephemeral).
	Addr string
	// TCPAddr is the binary wire-protocol listen address ("" = disabled).
	TCPAddr string

	// Trees is the Morton-prefix shard count (1 = single tree). Modules
	// is the PIM module count per tree.
	Trees, Modules int
	// Dims is the point dimensionality (2-4).
	Dims int
	// Tuning is the pim threshold preset: "throughput" or "skew".
	Tuning string
	// Dataset ("uniform", "cosmos", "osm", "varden"), N and Seed define the warmup
	// point set the index is built over.
	Dataset string
	N       int
	Seed    int64

	// FlightOut and RequestsOut, when set, receive the final flight and
	// slow-request dumps (JSON) during Shutdown.
	FlightOut, RequestsOut string
	// DrainTimeout bounds each of the engine, TCP and admin drains.
	DrainTimeout time.Duration
}

// parsed is the typed form of a Config's string-valued fields.
type parsed struct {
	tuning  core.Tuning
	dataset workload.Dataset
}

// sampleEvery is the module-load sampling cadence in rounds.
const sampleEvery = 32

// objectives is the latency SLO table /snapshot/slo and the
// pimzd_slo_* families track.
var objectives = []metrics.SLOObjective{
	{Op: "search", LatencySeconds: 0.050, Target: 0.99},
	{Op: "insert", LatencySeconds: 0.050, Target: 0.99},
	{Op: "delete", LatencySeconds: 0.050, Target: 0.99},
	{Op: "knn", LatencySeconds: 0.100, Target: 0.99},
	{Op: "box", LatencySeconds: 0.100, Target: 0.99},
}

// CheckDims is the served dimensionality rule: 2 to 4.
func CheckDims(dims int) error {
	if dims < 2 || dims > 4 {
		return fmt.Errorf("dims=%d: want 2-4", dims)
	}
	return nil
}

// CheckSize is the CLIs' size-flag rule: a count of points, PIM modules or
// operations is at least 1. Zero is refused, not read as "use the default".
func CheckSize(flag string, n int) error {
	if n < 1 {
		return fmt.Errorf("-%s %d: want at least 1", flag, n)
	}
	return nil
}

func (c Config) validate() (parsed, error) {
	var p parsed
	switch {
	case c.Trees < 1:
		return p, fmt.Errorf("trees=%d: want at least 1", c.Trees)
	case c.Modules < 1:
		return p, fmt.Errorf("p=%d: want at least 1 PIM module", c.Modules)
	case CheckDims(c.Dims) != nil:
		return p, CheckDims(c.Dims)
	case c.N < 0:
		return p, fmt.Errorf("n=%d: want a non-negative warmup size", c.N)
	}
	var err error
	if p.tuning, err = core.ParseTuning(c.Tuning); err != nil {
		return p, err
	}
	if p.dataset, err = workload.ParseDataset(c.Dataset); err != nil {
		return p, err
	}
	return p, nil
}

// Server is a running server. Start returns it listening on Addr and
// warming; WaitReady blocks until it serves; Shutdown drains it.
type Server struct {
	cfg    Config
	reg    *metrics.Registry
	flight *obs.FlightRecorder
	reqs   *serve.RequestTracer
	slo    *metrics.SLOTracker
	admin  *metrics.AdminServer

	// Written by warm before ready flips (idx, eng, api) or before warmed
	// closes (tcp, warmErr); readers check ready or wait on warmed first,
	// which orders the accesses.
	idx     *shard.Index
	eng     *serve.Engine
	api     http.Handler
	tcp     *serve.TCPServer
	warmErr error

	ready  atomic.Bool
	warmed chan struct{}

	tickStop, tickDone chan struct{}

	shutdownOnce sync.Once
	shutdownErr  error
}

// Start validates cfg, binds the admin listener and returns; the warmup
// build, the engine and the TCP listener come up in the background (see
// WaitReady). The admin listener is up first on purpose: /healthz answers
// immediately (the process is alive) while /readyz, /v1 and the index
// snapshots answer 503 until the index is published, so probes and load
// generators can poll instead of retrying connection errors. A Config
// error is returned before anything binds.
func Start(cfg Config) (*Server, error) { return start(cfg, func() {}) }

// start is Start's body; the background warmup calls beforeBuild first, so
// tests can hold a server in its warming state.
func start(cfg Config, beforeBuild func()) (*Server, error) {
	p, err := cfg.validate()
	if err != nil {
		return nil, fmt.Errorf("server: config: %w", err)
	}
	s := &Server{
		cfg:      cfg,
		reg:      metrics.New(),
		warmed:   make(chan struct{}),
		tickStop: make(chan struct{}),
		tickDone: make(chan struct{}),
	}

	// Live metrics plumbing: a retention-free recorder streams every
	// event into the registry and stores nothing, so the server can run
	// indefinitely.
	rec := obs.New()
	rec.SetRetainEvents(false)
	rec.SetSink(metrics.NewObsSink(s.reg))
	rec.SetModuleSampling(sampleEvery)
	s.flight = obs.NewFlightRecorder(obs.FlightConfig{})
	rec.SetFlight(s.flight)
	s.reqs = serve.NewRequestTracer(serve.RequestTraceConfig{})
	s.slo = metrics.NewSLOTracker(metrics.SLOConfig{Objectives: objectives, Registry: s.reg})
	s.reg.NewGaugeVec(metrics.Opts{Name: "pimzd_build_info",
		Help: "Build and configuration identity (value is always 1).", Wall: true},
		"go_version", "trees").With(runtime.Version(), strconv.Itoa(cfg.Trees)).Set(1)

	extra := map[string]http.Handler{
		"/v1/": s.whenReady(func(w http.ResponseWriter, r *http.Request) { s.api.ServeHTTP(w, r) }),
		"/snapshot/slowrequests": http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			if err := s.reqs.WriteJSON(w); err != nil {
				fmt.Fprintf(os.Stderr, "server: slowrequests: %v\n", err)
			}
		}),
		"/snapshot/shards": s.whenReady(func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			if err := json.NewEncoder(w).Encode(s.idx.Stats()); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		}),
	}
	admin := metrics.AdminConfig{
		Registry: s.reg,
		TreeStats: func() any {
			if !s.ready.Load() {
				return struct{}{}
			}
			return s.idx.TreeStats()
		},
		ModuleLoads: func() (cycles, bytes []int64) {
			if !s.ready.Load() {
				return nil, nil
			}
			return s.idx.ModuleLoads()
		},
		Flight: s.flight,
		SLO:    s.slo,
		Health: func() error { return nil }, // alive once listening
		Ready: func() error {
			if !s.ready.Load() {
				return errors.New("warmup build not published")
			}
			if s.eng.Stats().ShuttingDown {
				return errors.New("engine not accepting requests")
			}
			return nil
		},
		Extra: extra,
	}
	if s.admin, err = metrics.StartAdmin(cfg.Addr, admin); err != nil {
		return nil, fmt.Errorf("server: admin listener: %w", err)
	}
	go func() {
		beforeBuild()
		s.warm(p, rec)
	}()
	return s, nil
}

// whenReady gates an index-backed handler: 503 until the index is published.
func (s *Server) whenReady(h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !s.ready.Load() {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "warming up", http.StatusServiceUnavailable)
			return
		}
		h(w, r)
	})
}

// warm builds the index, puts the serving engine in front of it — from
// there on the engine's executor goroutine is the only batch caller, and
// the admin snapshots read under the index's own lock — publishes
// readiness, starts the wall-cadence gauge publisher and binds
// the TCP listener.
func (s *Server) warm(p parsed, rec *obs.Recorder) {
	defer close(s.warmed)
	cfg := s.cfg
	warm := p.dataset.Generate(cfg.Seed, cfg.N, uint8(cfg.Dims))
	machine := costmodel.UPMEMServer()
	machine.PIMModules = cfg.Modules
	s.idx = shard.New(shard.Config{
		Trees: cfg.Trees, Dims: uint8(cfg.Dims), Machine: machine, Tuning: p.tuning,
		Obs: rec, LoadStats: true, Rebalance: true,
	}, warm)
	s.idx.SetFanoutCapture(true)
	s.eng = serve.New(serve.Config{
		Backend:  s.idx,
		Registry: s.reg,
		Flight:   s.flight,
		Requests: s.reqs,
		SLO:      s.slo,
	})
	s.api = serve.NewHTTPHandler(s.eng)
	publish := s.gaugePublisher()
	publish(0)
	s.ready.Store(true)

	go func() {
		defer close(s.tickDone)
		start := time.Now()
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-s.tickStop:
				return
			case <-tick.C:
				publish(time.Since(start).Seconds())
			}
		}
	}()

	if cfg.TCPAddr != "" {
		var err error
		if s.tcp, err = serve.ServeTCP(cfg.TCPAddr, s.eng); err != nil {
			s.warmErr = fmt.Errorf("server: tcp listener: %w", err)
		}
	}
}

// gaugePublisher registers the wall-cadence families and returns their
// refresh function: process uptime, the SLO window gauges and the
// per-shard families. All Wall-marked: the shard values derive from the
// deterministic model, but the refresh cadence is wall-driven, so the
// modeled exposition is the same at any Trees. Refreshing from the
// ticker, not from any request path, is what keeps them live on a server
// that only ever sees client traffic.
func (s *Server) gaugePublisher() func(uptimeSeconds float64) {
	uptime := s.reg.NewCounter(metrics.Opts{Name: "pimzd_process_uptime_seconds",
		Help: "Wall-clock seconds the process has been up (monotone).", Wall: true})
	points := s.reg.NewGaugeVec(metrics.Opts{Name: "pimzd_shard_points",
		Help: "Points stored per Morton-prefix shard.", Wall: true}, "shard")
	load := s.reg.NewGaugeVec(metrics.Opts{Name: "pimzd_shard_window_load",
		Help: "Modeled load (module cycles + channel bytes) per shard in the current rebalance window.", Wall: true}, "shard")
	imbalance := s.reg.NewGauge(metrics.Opts{Name: "pimzd_shard_imbalance",
		Help: "Busiest-shard load over mean shard load in the current window.", Wall: true})
	rebalances := s.reg.NewCounter(metrics.Opts{Name: "pimzd_shard_rebalances_total",
		Help: "Load-weighted repartitions performed at epoch boundaries.", Wall: true})
	migrated := s.reg.NewCounter(metrics.Opts{Name: "pimzd_shard_migrated_points_total",
		Help: "Points that changed shards across all repartitions.", Wall: true})
	return func(uptimeSeconds float64) {
		uptime.SetTotal(uptimeSeconds)
		s.slo.PublishGauges()
		st := s.idx.Stats()
		for i, ps := range st.PerShard {
			label := strconv.Itoa(i)
			points.With(label).Set(float64(ps.Points))
			load.With(label).Set(float64(ps.WindowLoad))
		}
		imbalance.Set(st.Imbalance)
		rebalances.SetTotal(float64(st.Rebalances))
		migrated.SetTotal(float64(st.MigratedPoints))
	}
}

// Addr returns the bound admin+client HTTP address (host:port).
func (s *Server) Addr() string { return s.admin.Addr() }

// WaitReady blocks until the warmup build is published, the engine
// accepts requests and the TCP listener (when configured) is bound. On
// error the server is still up on Addr and still needs Shutdown.
func (s *Server) WaitReady() error {
	<-s.warmed
	return s.warmErr
}

// TCPAddr returns the bound wire-protocol address ("" when disabled).
// Valid once WaitReady has returned nil.
func (s *Server) TCPAddr() string {
	<-s.warmed
	if s.tcp == nil {
		return ""
	}
	return s.tcp.Addr()
}

// Shutdown drains the server, client-facing first: intake closes (new
// requests get 503 / shutdown frames) and admitted requests drain — past
// DrainTimeout they resolve as 503 instead of hanging — then client
// connections drain, then the final flight and slow-request dumps are
// written, and the admin server drains last so the shutdown stays
// observable. It returns every failure along the way, joined. A warmup
// still in progress is waited for (a build cannot be interrupted).
func (s *Server) Shutdown() error {
	s.shutdownOnce.Do(func() { s.shutdownErr = s.shutdown(func(string) {}) })
	return s.shutdownErr
}

// shutdown is Shutdown's body; after is told each completed stage
// ("engine", "tcp", "dumps", "admin") so tests can observe the order.
func (s *Server) shutdown(after func(stage string)) error {
	<-s.warmed
	var errs []error
	drain := func(what string, f func(context.Context) error) {
		ctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
		defer cancel()
		if err := f(ctx); err != nil {
			errs = append(errs, fmt.Errorf("server: %s drain: %w", what, err))
		}
	}

	drain("engine", s.eng.Shutdown)
	after("engine")
	if s.tcp != nil {
		drain("tcp", s.tcp.Shutdown)
	}
	after("tcp")
	close(s.tickStop)
	<-s.tickDone

	if s.cfg.FlightOut != "" {
		if err := writeDump(s.cfg.FlightOut, s.flight.WriteJSON); err != nil {
			errs = append(errs, fmt.Errorf("server: flight dump: %w", err))
		}
	}
	if s.cfg.RequestsOut != "" {
		if err := writeDump(s.cfg.RequestsOut, s.reqs.WriteJSON); err != nil {
			errs = append(errs, fmt.Errorf("server: slow-request dump: %w", err))
		}
	}
	after("dumps")
	if err := s.admin.Shutdown(s.cfg.DrainTimeout); err != nil {
		errs = append(errs, fmt.Errorf("server: admin drain: %w", err))
	}
	after("admin")
	return errors.Join(errs...)
}

// writeDump writes one JSON dump to path.
func writeDump(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
