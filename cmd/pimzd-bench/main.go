// Command pimzd-bench regenerates the paper's evaluation tables and
// figures on the simulated PIM system.
//
// Usage:
//
//	pimzd-bench -experiment all
//	pimzd-bench -experiment fig5a -warmup 1000000 -batch 100000
//	pimzd-bench -experiment table3
//
// The experiment ids are internal/bench's Experiments table (`-h` lists
// them); `all` runs every panel whose CSV is modeled time, which is
// byte-identical at any GOMAXPROCS. See DESIGN.md for the experiment index
// and EXPERIMENTS.md for paper-vs-measured values.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"

	"pimzdtree/internal/bench"
	"pimzdtree/internal/geom"
	"pimzdtree/internal/metrics"
	"pimzdtree/internal/obs"
	"pimzdtree/internal/server"
	"pimzdtree/internal/workload"
)

// loadPoints reads a point file, auto-detecting the binary format by its
// magic and falling back to CSV. The magic is read with io.ReadFull: a
// plain fd.Read may legally return fewer than 5 bytes (short read), which
// would misclassify a binary file as CSV. Files shorter than the magic
// (EOF/ErrUnexpectedEOF) fall through to the CSV parser; real I/O errors
// propagate.
func loadPoints(path string) ([]geom.Point, error) {
	fd, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fd.Close()
	var magic [5]byte
	_, err = io.ReadFull(fd, magic[:])
	switch {
	case err == nil && string(magic[:]) == "PTS1\n":
		if _, err := fd.Seek(0, 0); err != nil {
			return nil, err
		}
		return workload.ReadPoints(fd)
	case err != nil && err != io.EOF && err != io.ErrUnexpectedEOF:
		return nil, err
	}
	if _, err := fd.Seek(0, 0); err != nil {
		return nil, err
	}
	return workload.ReadCSV(fd)
}

// writeTraces exports one experiment's recorded events: Chrome trace-event
// JSON (Perfetto-loadable) and JSONL (CI-diffable) under dir.
func writeTraces(dir, id string, rec *obs.Recorder) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	export := func(name string, f func(io.Writer) error) error {
		fd, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := f(fd); err != nil {
			fd.Close()
			return err
		}
		return fd.Close()
	}
	if err := export(id+".trace.json", rec.ExportChrome); err != nil {
		return err
	}
	return export(id+".jsonl", rec.ExportJSONL)
}

// check validates -format, -dims and the size flags before anything is
// generated, profiled or served. -dims follows the served rule (2-4):
// outside it the workload generators or the tree's configuration panic.
// A size below 1 would panic in the tree's configuration (-p) or, read as
// unset, silently run at the default size.
func check(format string, dims, modules, warmup, batch int) error {
	if format != "table" && format != "csv" {
		return fmt.Errorf("unknown format %q", format)
	}
	return errors.Join(server.CheckDims(dims), server.CheckSize("p", modules),
		server.CheckSize("warmup", warmup), server.CheckSize("batch", batch))
}

func main() {
	var (
		experiment = flag.String("experiment", "all", bench.ExperimentUsage())
		format     = flag.String("format", "table", "output format: table or csv")
		warmup     = flag.Int("warmup", bench.Defaults().WarmupN, "warmup points before measurement")
		batch      = flag.Int("batch", bench.Defaults().BatchOps, "point operations per measured batch")
		modules    = flag.Int("p", bench.Defaults().P, "number of PIM modules")
		seed       = flag.Int64("seed", bench.Defaults().Seed, "workload seed")
		dims       = flag.Int("dims", int(bench.Defaults().Dims), "point dimensionality (2-4)")
		file       = flag.String("file", "", "run the fig5 operation suite on a point file (binary PTS1 or CSV) instead of a synthetic dataset")
		traceOut   = flag.String("trace-out", "", "directory for per-experiment traces (<id>.trace.json Chrome format + <id>.jsonl)")
		traceSmp   = flag.Int("trace-sample", 0, "with -trace-out, snapshot module loads every N rounds (0 = off)")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file (go tool pprof)")
		serveAddr  = flag.String("serve", "", "serve live metrics (/metrics, /healthz, /debug/pprof) on this address while experiments run (host:0 for an ephemeral port)")

		flightOut   = flag.String("flight-out", "", "write a per-op flight-recorder dump (JSON) to this file at exit")
		flightRing  = flag.Int("flight", 256, "with -flight-out, flight-recorder ring capacity in ops")
		slowMs      = flag.Float64("slow-ms", 0, "with -flight-out, capture ops whose wall time reaches this many milliseconds (0 = top-K by latency)")
		slowModeled = flag.Float64("slow-modeled-us", 0, "with -flight-out, capture ops whose modeled time reaches this many microseconds")
		slowK       = flag.Int("slow-k", 16, "with -flight-out, retained slow-op records")
	)
	flag.Parse()
	selected, err := bench.Select(*experiment)
	if err == nil {
		err = check(*format, *dims, *modules, *warmup, *batch)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	obs.ServePprof(*pprofAddr)
	if *cpuProfile != "" {
		fd, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(fd); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			fd.Close()
		}()
	}

	// Live metrics: one registry outlives the per-experiment recorders, so
	// a scrape mid-run sees the whole suite's aggregate so far. Modeled
	// results are unaffected — the recorder is a passive observer.
	var (
		liveSink   *metrics.ObsSink
		wallPanels *metrics.Vec[metrics.Histogram]
	)
	if *serveAddr != "" {
		reg := metrics.New()
		liveSink = metrics.NewObsSink(reg)
		wallPanels = reg.NewHistogramVec(metrics.HistogramOpts{Opts: metrics.Opts{
			Name: "pimzd_panel_wall_seconds",
			Help: "Wall-clock time per experiment panel (real time, not modeled).",
			Wall: true}}, "experiment")
		srv, err := metrics.StartAdmin(*serveAddr, metrics.AdminConfig{Registry: reg})
		if err != nil {
			fmt.Fprintf(os.Stderr, "serve: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "serving live metrics on http://%s/metrics\n", srv.Addr())
	}
	// Per-op tracing: one flight recorder outlives the per-experiment
	// recorders (like the live registry), so trace IDs run through the whole
	// suite and the final dump covers every experiment.
	var flight *obs.FlightRecorder
	if *flightOut != "" {
		flight = obs.NewFlightRecorder(obs.FlightConfig{
			Ring:               *flightRing,
			SlowWallSeconds:    *slowMs / 1e3,
			SlowModeledSeconds: *slowModeled / 1e6,
			SlowK:              *slowK,
		})
	}
	flushFlight := func() {
		if flight == nil {
			return
		}
		fd, err := os.Create(*flightOut)
		if err == nil {
			err = flight.WriteJSON(fd)
			if cerr := fd.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "flight-out: %v\n", err)
			os.Exit(1)
		}
	}

	// newRecorder builds the per-experiment recorder: retained for trace
	// export when -trace-out is set, streaming-only when just serving or
	// flight-recording.
	newRecorder := func() *obs.Recorder {
		if *traceOut == "" && liveSink == nil && flight == nil {
			return nil
		}
		rec := obs.New()
		rec.SetRetainEvents(*traceOut != "")
		rec.SetModuleSampling(*traceSmp)
		if liveSink != nil {
			rec.SetSink(liveSink)
			// Keep the imbalance gauges live — but never change the
			// sampling a trace export would see: trace files must stay
			// byte-identical with serving on or off.
			if *traceSmp == 0 && *traceOut == "" {
				rec.SetModuleSampling(64)
			}
		}
		if flight != nil {
			rec.SetFlight(flight)
		}
		return rec
	}

	p := bench.Params{
		Seed:     *seed,
		WarmupN:  *warmup,
		BatchOps: *batch,
		Dims:     uint8(*dims),
		P:        *modules,
	}

	// An experiment writes both forms; the one not asked for is dropped.
	csvMode := *format == "csv"
	csvOut, text := io.Discard, io.Writer(os.Stdout)
	if csvMode {
		csvOut, text = os.Stdout, io.Discard
	}
	must := func(err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "csv: %v\n", err)
			os.Exit(1)
		}
	}

	run := func(e bench.Experiment) {
		start := time.Now()
		if !csvMode {
			fmt.Printf("== %s ==\n", e.ID)
		}
		// Each experiment gets a fresh recorder so its trace files stand
		// alone; with tracing and serving both off, p.Obs stays nil and
		// nothing changes.
		rec := newRecorder()
		p.Obs = rec
		must(e.Run(p, csvOut, text))
		if rec != nil && *traceOut != "" {
			if err := writeTraces(*traceOut, e.ID, rec); err != nil {
				fmt.Fprintf(os.Stderr, "trace export: %v\n", err)
				os.Exit(1)
			}
		}
		wallPanels.With(e.ID).Observe(time.Since(start).Seconds())
		if !csvMode {
			fmt.Printf("(%s in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		}
	}

	if *file != "" {
		pts, err := loadPoints(*file)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loading %s: %v\n", *file, err)
			os.Exit(1)
		}
		p.Dims = pts[0].Dims
		p.WarmupN = len(pts)
		if rec := newRecorder(); rec != nil {
			p.Obs = rec
			if *traceOut != "" {
				defer func() {
					if err := writeTraces(*traceOut, "custom", rec); err != nil {
						fmt.Fprintf(os.Stderr, "trace export: %v\n", err)
						os.Exit(1)
					}
				}()
			}
		}
		rows := bench.Fig5Custom(pts, p)
		if csvMode {
			must(bench.Fig5CSV(os.Stdout, rows))
		} else {
			fmt.Printf("custom dataset %s: %d points, dims=%d, gini=%.3f\n",
				*file, len(pts), pts[0].Dims, workload.Gini(pts, 2048))
			bench.RenderFig5Custom(os.Stdout, rows)
		}
		flushFlight()
		return
	}

	for _, e := range selected {
		run(e)
	}
	flushFlight()
}
