// Command pimzd-trace executes one batched operation on a PIM-zd-tree with
// hierarchical tracing enabled and exports the execution profile. Three
// views share the same event stream:
//
//   - table (default): the op/phase span tree, the per-round table with
//     phase attribution, the per-phase CPU/PIM/comm breakdown, and the
//     named tree counters;
//   - chrome: Chrome trace-event JSON, loadable in Perfetto
//     (https://ui.perfetto.dev) or chrome://tracing;
//   - jsonl: one JSON object per event, suitable for CI diffing (runs are
//     deterministic, so identical inputs produce byte-identical output).
//
// -profile modules adds per-round per-module load snapshots (cycles and
// bytes p50/p99/max plus an imbalance factor), sampled every -sample
// rounds.
//
// The analyze subcommand reads a flight-recorder dump (pimzd-serve
// -flight-out, pimzd-bench -flight-out, or /snapshot/flightrecorder) and
// prints the deterministic critical-path report: per-op-type p50/p99
// attribution to CPU/PIM/comm, the top straggler modules, and the per-op
// round-imbalance ranking. With -requests the input is a slow-request
// dump instead (pimzd-serve -requests-out or /snapshot/slowrequests) and
// the report is the request-lifecycle view: per-op stage-latency
// quantiles with the dominant pipeline stage, plus the top cross-shard
// fan-out offenders with their costliest shard.
//
// Usage:
//
//	pimzd-trace -op knn -n 200000 -batch 5000 -tuning skew
//	pimzd-trace -op knn -format chrome -out knn.trace.json
//	pimzd-trace -op search -profile modules -sample 4
//	pimzd-trace analyze flight.json
//	pimzd-trace analyze -top 20 -out report.txt flight.json
//	pimzd-trace analyze -requests requests.json
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"pimzdtree/internal/core"
	"pimzdtree/internal/costmodel"
	"pimzdtree/internal/obs"
	"pimzdtree/internal/pim"
	"pimzdtree/internal/serve"
	"pimzdtree/internal/shard"
	"pimzdtree/internal/workload"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "analyze" {
		analyzeMain(os.Args[2:])
		return
	}
	var (
		op      = flag.String("op", "search", "operation: search, insert, delete, knn, boxcount, boxfetch")
		dataset = flag.String("dataset", "uniform", "workload: uniform, cosmos, osm, varden")
		n       = flag.Int("n", 200_000, "warmup points")
		batch   = flag.Int("batch", 10_000, "batch size")
		modules = flag.Int("p", 2048, "PIM modules per tree")
		trees   = flag.Int("trees", 1, "Morton-prefix shards: run the op through a sharded index of this many trees (1 = single tree; per-shard spans appear as phases under the routed op)")
		tuning  = flag.String("tuning", "throughput", "tuning: throughput or skew")
		k       = flag.Int("k", 10, "k for knn")
		seed    = flag.Int64("seed", 42, "workload seed")
		format  = flag.String("format", "table", "output format: table, chrome, jsonl")
		profile = flag.String("profile", "", "extra profiling: modules (per-round per-module load snapshots)")
		sample  = flag.Int("sample", 0, "snapshot module loads every N rounds (0 = off; -profile modules defaults it to 1)")
		out     = flag.String("out", "", "write output to file instead of stdout")
		pprof   = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	)
	flag.Parse()
	obs.ServePprof(*pprof)

	if *format != "table" && *format != "chrome" && *format != "jsonl" {
		fmt.Fprintf(os.Stderr, "unknown format %q\n", *format)
		os.Exit(2)
	}
	if *profile != "" && *profile != "modules" {
		fmt.Fprintf(os.Stderr, "unknown profile %q\n", *profile)
		os.Exit(2)
	}
	if *profile == "modules" && *sample == 0 {
		*sample = 1
	}

	ds, err := workload.ParseDataset(*dataset)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	tun, err := core.ParseTuning(*tuning)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	data := ds.Generate(*seed, *n, 3)

	machine := costmodel.UPMEMServer()
	machine.PIMModules = *modules
	cfg := core.Config{Dims: 3, Machine: machine, Tuning: tun}
	// Attach the recorder after the build so the trace covers only the
	// measured operation (mirroring the metrics reset). With -trees > 1
	// the op runs through the shard router; the per-shard recorders merge
	// into rec in shard order, so the export stays deterministic.
	rec := obs.New()
	rec.SetModuleSampling(*sample)
	var tree *core.Tree
	var idx *shard.Index
	if *trees > 1 {
		idx = shard.New(shard.Config{
			Trees: *trees, Dims: 3, Machine: machine, Tuning: cfg.Tuning}, data)
		idx.ResetMetrics()
		idx.SetRecorder(rec)
	} else {
		tree = core.New(cfg, data)
		tree.System().ResetMetrics()
		tree.System().SetRecorder(rec)
	}
	totals := func() pim.Metrics {
		if idx != nil {
			return idx.Metrics()
		}
		return tree.System().Metrics()
	}

	var elements int
	switch *op {
	case "search":
		qs := workload.QueryPoints(*seed+1, data, *batch)
		if idx != nil {
			idx.SearchBatch(qs)
		} else {
			tree.Search(qs)
		}
		elements = len(qs)
	case "insert":
		pts := workload.QueryPoints(*seed+2, data, *batch)
		if idx != nil {
			idx.InsertBatch(pts)
		} else {
			tree.Insert(pts)
		}
		elements = len(pts)
	case "delete":
		pts := data[:min(*batch, len(data))]
		if idx != nil {
			idx.DeleteBatch(pts)
		} else {
			tree.Delete(pts)
		}
		elements = len(pts)
	case "knn":
		qs := workload.QueryPoints(*seed+3, data, *batch)
		var res [][]core.Neighbor
		if idx != nil {
			res = idx.KNNBatch(qs, *k)
		} else {
			res = tree.KNN(qs, *k)
		}
		for _, ns := range res {
			elements += len(ns)
		}
	case "boxcount":
		boxes := workload.QueryBoxes(*seed+4, data, *batch, 10)
		if idx != nil {
			idx.BoxCountBatch(boxes)
		} else {
			tree.BoxCount(boxes)
		}
		elements = len(boxes)
	case "boxfetch":
		if idx != nil {
			fmt.Fprintln(os.Stderr, "boxfetch is not routed through -trees; use -trees 1")
			os.Exit(2)
		}
		boxes := workload.QueryBoxes(*seed+5, data, *batch, 10)
		res := tree.BoxFetch(boxes)
		for _, pts := range res {
			elements += len(pts)
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown op %q\n", *op)
		os.Exit(2)
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		fd, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "creating %s: %v\n", *out, err)
			os.Exit(1)
		}
		defer fd.Close()
		bw := bufio.NewWriter(fd)
		defer bw.Flush()
		w = bw
	}

	switch *format {
	case "chrome":
		if err := rec.ExportChrome(w); err != nil {
			fmt.Fprintf(os.Stderr, "chrome export: %v\n", err)
			os.Exit(1)
		}
		return
	case "jsonl":
		if err := rec.ExportJSONL(w); err != nil {
			fmt.Fprintf(os.Stderr, "jsonl export: %v\n", err)
			os.Exit(1)
		}
		return
	}

	fmt.Fprintf(w, "%s over %s (n=%d, batch=%d, trees=%d, P=%d/tree, %v)\n\n",
		*op, *dataset, *n, *batch, max(*trees, 1), *modules, cfg.Tuning)
	fmt.Fprintln(w, "spans:")
	rec.WriteSpanTree(w)
	fmt.Fprintln(w, "\nrounds:")
	rec.WriteRounds(w)
	if *profile == "modules" {
		fmt.Fprintln(w, "\nmodule load profiles:")
		rec.WriteModuleProfiles(w)
	}
	fmt.Fprintln(w, "\nphase breakdown:")
	rec.WritePhaseBreakdown(w)
	fmt.Fprintln(w, "\ncounters:")
	rec.WriteCounters(w)

	m := totals()
	fmt.Fprintf(w, "\ntotals: %d rounds, %d B to PIM, %d B from PIM, %d elements\n",
		m.Rounds, m.BytesToPIM, m.BytesFromPIM, elements)
	fmt.Fprintf(w, "modeled time: CPU %.1fus + PIM %.1fus + comm %.1fus = %.1fus\n",
		m.CPUSeconds*1e6, m.PIMSeconds*1e6, m.CommSeconds*1e6, m.TotalSeconds()*1e6)
	if m.TotalSeconds() > 0 {
		fmt.Fprintf(w, "throughput: %.2f M elements/s\n", float64(elements)/m.TotalSeconds()/1e6)
	}
}

// analyzeMain implements `pimzd-trace analyze [-requests] [-top N]
// [-out file] <dump>`: the critical-path report over a flight-recorder
// dump, or (with -requests) the stage-attribution report over a
// slow-request dump. Both reports read only recorded fields and sort
// under total orders, so they are byte-identical across runs and
// GOMAXPROCS.
func analyzeMain(args []string) {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	top := fs.Int("top", 10, "straggler modules (or fan-out offenders with -requests) to list")
	reqs := fs.Bool("requests", false, "input is a slow-request dump (pimzd-serve -requests-out or /snapshot/slowrequests)")
	out := fs.String("out", "", "write the report to file instead of stdout")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: pimzd-trace analyze [-requests] [-top N] [-out file] <dump.json>\n")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 1 {
		fs.Usage()
		os.Exit(2)
	}
	fd, err := os.Open(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "analyze: %v\n", err)
		os.Exit(1)
	}
	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "analyze: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		bw := bufio.NewWriter(f)
		defer bw.Flush()
		w = bw
	}
	if *reqs {
		rdump, err := serve.ReadRequestDump(fd)
		fd.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "analyze: parsing %s: %v\n", fs.Arg(0), err)
			os.Exit(1)
		}
		if rdump.Format != serve.RequestDumpFormat {
			fmt.Fprintf(os.Stderr, "analyze: %s: unknown dump format %q (want %q)\n",
				fs.Arg(0), rdump.Format, serve.RequestDumpFormat)
			os.Exit(1)
		}
		rdump.WriteAnalysis(w, *top)
		return
	}
	dump, err := obs.ReadFlightDump(fd)
	fd.Close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "analyze: parsing %s: %v\n", fs.Arg(0), err)
		os.Exit(1)
	}
	if dump.Format != obs.FlightDumpFormat {
		fmt.Fprintf(os.Stderr, "analyze: %s: unknown dump format %q (want %q)\n",
			fs.Arg(0), dump.Format, obs.FlightDumpFormat)
		os.Exit(1)
	}
	dump.WriteAnalysis(w, *top)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
