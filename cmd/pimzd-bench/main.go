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
	"runtime/pprof"
	"time"

	"pimzdtree/internal/bench"
	"pimzdtree/internal/geom"
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

// check validates -format, -dims and the size flags before anything is
// generated or profiled. -dims follows the served rule (2-4): outside it
// the workload generators or the tree's configuration panic.
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
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file (go tool pprof)")
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

	if *file != "" {
		pts, err := loadPoints(*file)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loading %s: %v\n", *file, err)
			os.Exit(1)
		}
		p.Dims = pts[0].Dims
		p.WarmupN = len(pts)
		rows := bench.Fig5Custom(pts, p)
		if csvMode {
			must(bench.Fig5CSV(os.Stdout, rows))
		} else {
			fmt.Printf("custom dataset %s: %d points, dims=%d, gini=%.3f\n",
				*file, len(pts), pts[0].Dims, workload.Gini(pts, 2048))
			bench.RenderFig5Custom(os.Stdout, rows)
		}
		return
	}

	for _, e := range selected {
		start := time.Now()
		if !csvMode {
			fmt.Printf("== %s ==\n", e.ID)
		}
		must(e.Run(p, csvOut, text))
		if !csvMode {
			fmt.Printf("(%s in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		}
	}
}
