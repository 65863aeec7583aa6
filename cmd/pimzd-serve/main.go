// Command pimzd-serve runs a PIM-zd-tree — one tree, or -trees S
// Morton-prefix shards — as a long-lived concurrent service: flag parsing
// and a signal wait around internal/server, which documents the client
// API (/v1/*, binary TCP) and every admin endpoint (/metrics, /healthz,
// /readyz, /snapshot/*, /debug/pprof/). All index access flows through the
// epoch-pipelined serving engine (internal/serve). The server generates no
// traffic of its own: drive it with pimzd-loadgen or any HTTP /
// wire-protocol client. Observability has no knobs: internal/server runs
// one fixed setup (module sampling, flight recorder, slow-request capture,
// SLO table) and documents it.
//
// The admin listener is up (and -port-file written) before the warmup
// build, so probes can poll /readyz. SIGINT/SIGTERM — or -duration
// elapsing — shut the server down gracefully: intake closes (new requests
// get 503 / shutdown frames), admitted requests drain until
// -drain-timeout, anything still pending past the deadline completes with
// an explicit 503 instead of hanging, client connections drain, the final
// dumps flush to -flight-out / -requests-out, and the admin server drains
// last. A rejected configuration exits 2 before anything binds.
//
// Usage:
//
//	pimzd-serve -addr 127.0.0.1:8585 -dataset osm -n 400000
//	pimzd-serve -addr 127.0.0.1:0 -port-file /tmp/port -tcp 127.0.0.1:0 -tcp-port-file /tmp/tcp
//	pimzd-serve -trees 8 -p 256                 # Morton-prefix sharding: 8 trees x 256 modules
//	pimzd-loadgen -http 127.0.0.1:8585 -duration 10s   # traffic
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pimzdtree/internal/server"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8585", "admin+client HTTP address (host:0 for an ephemeral port)")
		portFile    = flag.String("port-file", "", "write the bound admin address to this file once listening")
		tcpAddr     = flag.String("tcp", "", "binary wire-protocol TCP listener address (empty = disabled)")
		tcpPortFile = flag.String("tcp-port-file", "", "write the bound TCP address to this file once listening")
		dataset     = flag.String("dataset", "uniform", "warmup data: uniform, cosmos, osm, varden")
		n           = flag.Int("n", 200_000, "warmup points")
		modules     = flag.Int("p", 512, "PIM modules per tree")
		trees       = flag.Int("trees", 1, "Morton-prefix shards: partition the key space across this many parallel trees, each on its own simulated rack (1 = single tree)")
		dims        = flag.Int("dims", 3, "point dimensionality (2-4)")
		seed        = flag.Int64("seed", 42, "warmup data seed")
		tuning      = flag.String("tuning", "throughput", "tuning: throughput or skew")
		duration    = flag.Duration("duration", 0, "exit after this long (0 = run until killed)")

		drainTimeout = flag.Duration("drain-timeout", 5*time.Second, "graceful drain deadline on shutdown (engine, TCP, admin each)")
		flightOut    = flag.String("flight-out", "", "write the final flight-recorder dump (JSON) to this file on exit")
		requestsOut  = flag.String("requests-out", "", "write the final slow-request dump (JSON) to this file on exit")
	)
	flag.Parse()

	srv, err := server.Start(server.Config{
		Addr:         *addr,
		TCPAddr:      *tcpAddr,
		Trees:        *trees,
		Modules:      *modules,
		Dims:         *dims,
		Tuning:       *tuning,
		Dataset:      *dataset,
		N:            *n,
		Seed:         *seed,
		FlightOut:    *flightOut,
		RequestsOut:  *requestsOut,
		DrainTimeout: *drainTimeout,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "pimzd-serve: %v\n", err)
		os.Exit(2)
	}
	fmt.Printf("pimzd-serve: admin+api on http://%s (trees=%d dataset=%s n=%d)\n",
		srv.Addr(), *trees, *dataset, *n)

	// SIGINT/SIGTERM cancel ctx; a signal during the warmup build takes
	// effect as soon as the build finishes.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	err = writePortFile(*portFile, srv.Addr())
	if err == nil {
		err = srv.WaitReady()
	}
	if err == nil && *tcpAddr != "" {
		fmt.Printf("pimzd-serve: wire protocol on tcp://%s\n", srv.TCPAddr())
		err = writePortFile(*tcpPortFile, srv.TCPAddr())
	}
	if err == nil {
		var timeout <-chan time.Time // nil (never fires) without -duration
		if *duration > 0 {
			timeout = time.After(*duration)
		}
		select {
		case <-ctx.Done():
		case <-timeout:
		}
	}

	if err = errors.Join(err, srv.Shutdown()); err != nil {
		fmt.Fprintf(os.Stderr, "pimzd-serve: %v\n", err)
		os.Exit(1)
	}
}

// writePortFile publishes a bound address for scripts ("" = no file).
func writePortFile(path, addr string) error {
	if path == "" {
		return nil
	}
	return os.WriteFile(path, []byte(addr+"\n"), 0o644)
}
