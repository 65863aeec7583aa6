package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

// smokeConfig is every workload at a hundredth of its size for a fraction
// of a second.
func smokeConfig(t *testing.T, workload string, seed int64, trace bool) config {
	return config{workload: workload, seed: seed, seconds: 0.3, scale: 0.01, trace: trace, outDir: t.TempDir()}
}

func mustRun(t *testing.T, c config) *report {
	t.Helper()
	rep, err := run(c)
	if err != nil {
		t.Fatalf("%s: %v", c.workload, err)
	}
	if !rep.correct || !rep.valid {
		t.Fatalf("%s: correct=%v valid=%v: %v", c.workload, rep.correct, rep.valid, rep.notes)
	}
	return rep
}

// Every workload reports every end-to-end metric, finite and non-zero, and
// nothing undeclared.
func TestEndToEndSchema(t *testing.T) {
	for name := range workloads {
		rep := mustRun(t, smokeConfig(t, name, 1, false))
		for _, d := range endToEndMetrics {
			v, ok := rep.metrics[d.Name]
			if !ok || v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v (present %v)", name, d.Name, v, ok)
			}
		}
		if len(rep.metrics) != len(endToEndMetrics) {
			t.Errorf("%s: %d metrics computed, %d declared", name, len(rep.metrics), len(endToEndMetrics))
		}
		if rep.attempted < 1 || rep.failed != 0 {
			t.Errorf("%s: attempted %d, failed %d", name, rep.attempted, rep.failed)
		}
	}
}

// traceFile is the part of the Chrome trace-event format the test reads.
type traceFile struct {
	OtherData   map[string]any `json:"otherData"`
	TraceEvents []struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Args struct {
			ID     int32 `json:"id"`
			Parent int32 `json:"parent"`
		} `json:"args"`
	} `json:"traceEvents"`
}

// A traced run of every workload writes a trace that parses, in which the
// stage spans of a request add up to its serve.request span; and between
// them the four workloads produce every declared per-layer metric.
func TestTracedRuns(t *testing.T) {
	produced := map[string]bool{}
	for name := range workloads {
		c := smokeConfig(t, name, 1, true)
		rep := mustRun(t, c)
		declared := map[string]bool{}
		for _, d := range perLayerMetrics {
			declared[d.Name] = true
			if rep.metrics[d.Name] != 0 {
				produced[d.Name] = true
			}
		}
		for m := range rep.metrics {
			if !declared[m] {
				t.Errorf("%s: undeclared per-layer metric %s", name, m)
			}
		}

		buf, err := os.ReadFile(filepath.Join(c.outDir, "trace-"+name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var tf traceFile
		if err := json.Unmarshal(buf, &tf); err != nil {
			t.Fatalf("%s: trace does not parse: %v", name, err)
		}
		if len(tf.TraceEvents) == 0 || tf.OtherData["workload"] != name {
			t.Fatalf("%s: trace has %d events, environment %v", name, len(tf.TraceEvents), tf.OtherData)
		}
		parentDur := map[int32]float64{}
		childSum := map[int32]float64{}
		for _, e := range tf.TraceEvents {
			if e.Ph != "X" || e.Dur < 0 {
				t.Fatalf("%s: bad event %+v", name, e)
			}
			if e.Name == "serve.request" {
				parentDur[e.Args.ID] = e.Dur
			}
		}
		for _, e := range tf.TraceEvents {
			if _, ok := parentDur[e.Args.Parent]; ok {
				childSum[e.Args.Parent] += e.Dur
			}
		}
		for id, dur := range parentDur {
			if math.Abs(childSum[id]-dur) > 0.01*dur+0.01 { // µs; the second term is the file's rounding
				t.Errorf("%s: request span %d lasts %.3f µs, its stages %.3f µs", name, id, dur, childSum[id])
				break
			}
		}
	}
	for _, d := range perLayerMetrics {
		// At a hundredth of the size nothing is shed, nothing misses its
		// limit and the rebalancer may find nothing to move.
		switch d.Name {
		case "serve.shed_ratio", "slo.miss_ratio", "shard.rebalances", "shard.migrated_points",
			"shard.pruned_ratio", "go.gc_pause_ms", "go.gc_cycles":
			continue
		}
		if !produced[d.Name] {
			t.Errorf("no workload produced %s", d.Name)
		}
	}
}

var exactMetrics = []string{"modeled_mops", "chan_bytes_per_op", "pim_imbalance"}

// The modeled metrics of the library workloads repeat bit for bit: between
// two runs of one seed, and between one scheduler slot and two.
func TestModeledMetricsExact(t *testing.T) {
	for _, name := range []string{"tree-read", "tree-churn"} {
		first := mustRun(t, smokeConfig(t, name, 1, false))
		again := mustRun(t, smokeConfig(t, name, 1, false))
		prev := runtime.GOMAXPROCS(1)
		serial := mustRun(t, smokeConfig(t, name, 1, false))
		runtime.GOMAXPROCS(prev)
		for _, m := range exactMetrics {
			if a, b, c := first.metrics[m], again.metrics[m], serial.metrics[m]; a != b || a != c {
				t.Errorf("%s: %s = %v, then %v, and %v at GOMAXPROCS 1", name, m, a, b, c)
			}
		}
	}
}

// The same seed gives the same inputs and another seed gives others.
func TestSeedDecidesInputs(t *testing.T) {
	prepared := func(seed int64) *treeRead {
		w := &treeRead{c: smokeConfig(t, "tree-read", seed, false)}
		if err := w.prepare(&setupTimes{}); err != nil {
			t.Fatal(err)
		}
		return w
	}
	a, b, c := prepared(1), prepared(1), prepared(2)
	if !reflect.DeepEqual(a.sets, b.sets) {
		t.Error("seed 1 twice: different query sets")
	}
	if reflect.DeepEqual(a.sets, c.sets) {
		t.Error("seeds 1 and 2: the same query sets")
	}
	plan := func(seed int64) []plannedReq {
		w := &serveMixed{c: smokeConfig(t, "serve-mixed", seed, false)}
		if err := w.prepare(&setupTimes{}); err != nil {
			t.Fatal(err)
		}
		defer w.close()
		return w.plan(0.2)
	}
	due := func(p []plannedReq) (out []int64) {
		for _, r := range p {
			out = append(out, r.dueNs, int64(r.req.Op))
		}
		return out
	}
	if p, q, r := due(plan(1)), due(plan(1)), due(plan(2)); !reflect.DeepEqual(p, q) || reflect.DeepEqual(p, r) {
		t.Error("serve-mixed: the schedule does not follow the seed")
	}
}

// BENCHMARK.json at the root says what the tables in metrics.go say.
func TestContractInSync(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var onDisk any
	if err := json.Unmarshal(buf, &onDisk); err != nil {
		t.Fatal(err)
	}
	fresh, err := json.Marshal(describe())
	if err != nil {
		t.Fatal(err)
	}
	var want any
	if err := json.Unmarshal(fresh, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, want) {
		t.Error("BENCHMARK.json differs from `go run . -describe`; regenerate it")
	}
}
