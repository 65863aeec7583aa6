// Command benchmark is the repository's end-to-end benchmark: four named
// workloads driven through the public functions of core, shard and serve,
// every answer checked against a brute-force oracle, every metric printed by
// name with its unit. See README.md for what each workload and metric is
// for, and BENCHMARK.json for the contract the numbers are gated by.
//
//	go run . -workload tree-read -seed 1 -seconds 20 -trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// setupTrials is how many times an untraced run sets up; setup_s is the
// median, and the last set-up is the one measured.
const setupTrials = 3

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  float64 // nominal length of the measured region
	trace    bool
	scale    float64 // shrinks data, batches and fixed request counts (smoke test)
	outDir   string  // where the trace file goes
}

// setupTimes splits the set-up clock for the per-layer rows.
type setupTimes struct{ gen, build float64 }

// runner is one named workload: a traffic pattern over one composition of layers.
type runner interface {
	// prepare makes the inputs from the seed, builds the index (and the
	// server in front of it) and warms it up: everything setup_s times.
	prepare(st *setupTimes) error
	// measure runs frac of the measured work; tr is nil on untraced regions.
	measure(frac float64, tr *tracer) (*region, error)
	// layers adds the per-layer rows of traced region r, running the
	// workload's extra probes (fixed costs, ladder, rebalancing).
	layers(tr *tracer, r *region, out map[string]float64) error
	// verify checks answers against the brute-force oracle and the
	// workload's invariants, after all measuring is done.
	verify() (checked, wrong int, notes []string)
	close()
}

var workloads = map[string]func(config) runner{
	"tree-read":   func(c config) runner { return &treeRead{c: c} },
	"tree-churn":  func(c config) runner { return &treeChurn{c: c} },
	"serve-mixed": func(c config) runner { return &serveMixed{c: c} },
	"wire-read":   func(c config) runner { return &wireRead{c: c} },
}

// report is everything one run found.
type report struct {
	metrics   map[string]float64
	attempted int64
	failed    int64
	correct   bool
	valid     bool // false when the load generator, not the system, set the numbers
	notes     []string
}

func run(c config) (*report, error) {
	mk, ok := workloads[c.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", c.workload)
	}
	if c.trace {
		return runTraced(c, mk)
	}
	var (
		w      runner
		setups []float64
	)
	for i := 0; i < setupTrials; i++ {
		if w != nil {
			w.close()
			w = nil
			runtime.GC()
		}
		t0 := time.Now()
		w = mk(c)
		if err := w.prepare(&setupTimes{}); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.close()
	r, err := w.measure(1, nil)
	if err != nil {
		return nil, err
	}
	m := r.endToEnd()
	m["setup_s"] = median(setups)
	m["rss_peak_mb"] = maxRSSMB() // before the oracle, whose copy of the points is not the system's memory
	rep := &report{metrics: m, valid: true}
	rep.notes = append(rep.notes, fmt.Sprintf("set-up trials (s): %.3f", setups), r.sampleNote())
	rep.finish(w, r)
	return rep, nil
}

func runTraced(c config, mk func(config) runner) (*report, error) {
	w := mk(c)
	var st setupTimes
	if err := w.prepare(&st); err != nil {
		return nil, err
	}
	defer w.close()
	// The same region first untraced, then traced: the ratio of the two
	// rates is what tracing costs.
	ref, err := w.measure(1.0/6, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	r, err := w.measure(1.0/3, tr)
	if err != nil {
		return nil, err
	}
	m := map[string]float64{"workload.gen_s": st.gen, "core.build_s": st.build}
	r.runtimeLayer(m)
	if err := w.layers(tr, r, m); err != nil {
		return nil, err
	}
	refRates, _, _, _ := ref.segStats()
	rates, _, _, _ := r.segStats()
	m["trace.overhead_ratio"] = median(rates) / median(refRates)
	m["trace.spans"] = float64(tr.count())
	rep := &report{metrics: m, valid: true}
	rep.notes = append(rep.notes, r.sampleNote())
	rep.finish(w, r)

	if err := os.MkdirAll(c.outDir, 0o755); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	path := filepath.Join(c.outDir, "trace-"+c.workload+".json")
	if err := tr.write(path, environment(c)); err != nil {
		return nil, err
	}
	rep.notes = append(rep.notes, fmt.Sprintf("trace: %s (%d spans, %d past the cap)", path, tr.count(), tr.dropped))
	return rep, nil
}

// finish runs the oracle and folds the correctness and validity verdicts.
func (rep *report) finish(w runner, r *region) {
	checked, wrong, notes := w.verify()
	rep.notes = append(rep.notes, notes...)
	rep.attempted = int64(len(r.samples)) + int64(checked)
	rep.failed = r.failed() + int64(wrong)
	rep.correct = rep.failed == 0
	if note := r.invalid(); note != "" {
		rep.valid = false
		rep.notes = append(rep.notes, "INVALID RUN: "+note)
	}
}

// environment is what a reader needs to compare two reports.
func environment(c config) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"workload": c.workload, "seed": c.seed, "seconds": c.seconds, "scale": c.scale, "trace": c.trace,
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(), "go": runtime.Version(), "commit": commit,
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// print writes the human-readable table, then the result line.
func (rep *report) print(c config) error {
	defs := endToEndMetrics
	if c.trace {
		defs = perLayerMetrics
	}
	env, err := json.Marshal(environment(c))
	if err != nil {
		return err
	}
	fmt.Printf("environment: %s\n", env)
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	line := resultLine{Correct: rep.correct, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricValue{}}
	fmt.Printf("%-34s %16s  %-6s %-7s %s\n", "metric", "value", "unit", "better", "may worsen by")
	for _, d := range defs {
		v := rep.metrics[d.Name] // a row that does not apply to this workload reads 0
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		bound := "-"
		if !c.trace {
			bound = fmt.Sprintf("%.1f%%", d.Bound*100)
		}
		fmt.Printf("%-34s %16.6g  %-6s %-7s %s\n", d.Name, v, d.Unit, d.Better, bound)
		line.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	var extra []string
	for name := range rep.metrics {
		if _, ok := line.Metrics[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return fmt.Errorf("metrics computed but not declared: %v", extra)
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", out)
	return nil
}

func main() {
	var c config
	var trace int
	flag.StringVar(&c.workload, "workload", "", "tree-read, tree-churn, serve-mixed or wire-read")
	flag.Int64Var(&c.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	flag.Float64Var(&c.seconds, "seconds", runSeconds, "nominal length of the measured region")
	flag.IntVar(&trace, "trace", 0, "1: traced run, prints the per-layer metrics and writes a Chrome trace")
	flag.Float64Var(&c.scale, "scale", 1, "shrink data and batch sizes (smoke test)")
	flag.StringVar(&c.outDir, "out", ".bench_build", "directory for the trace file")
	descr := flag.Bool("describe", false, "print the contents of BENCHMARK.json and exit")
	flag.Parse()
	if *descr {
		out, err := json.MarshalIndent(describe(), "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		fmt.Printf("%s\n", out)
		return
	}
	c.trace = trace != 0
	if c.seconds <= 0 || c.scale <= 0 || c.scale > 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive and -scale in (0, 1]")
		os.Exit(2)
	}
	rep, err := run(c)
	if err == nil {
		err = rep.print(c)
	}
	if err == nil && !rep.correct {
		err = errors.New("answers failed the oracle or an operation failed")
	}
	if err == nil && !rep.valid {
		err = errors.New("invalid run")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
