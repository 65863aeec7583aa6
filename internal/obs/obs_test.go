package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	// Every method must be a no-op on the nil receiver.
	r.SetModuleSampling(1)
	r.BeginOp("op")
	r.BeginPhase("phase")
	r.EndPhase()
	r.EndOp()
	r.RecordRound(RoundInfo{}, 0, 0, nil)
	r.RecordCPUPhase(CPUInfo{})
	r.Add("x", 1)
	if r.Counters() != nil || r.Events() != nil {
		t.Fatal("nil recorder returned data")
	}
	if b, n := r.Totals(); b.Total() != 0 || n != 0 {
		t.Fatal("nil recorder returned totals")
	}
}

func TestSpanNestingAndAttribution(t *testing.T) {
	r := New()
	r.BeginOp("knn")
	r.BeginPhase("locate")
	r.RecordRound(RoundInfo{Seconds: 2}, 1.5, 0.5, nil)
	r.RecordCPUPhase(CPUInfo{Work: 10, Seconds: 1})
	r.EndPhase()
	r.BeginOp("search") // op inside op demotes to phase
	r.RecordRound(RoundInfo{Seconds: 4}, 3, 1, nil)
	r.EndOp()
	r.EndOp()

	evs := r.Events()
	if len(evs) != 6 {
		t.Fatalf("got %d events: %+v", len(evs), evs)
	}
	op := evs[0]
	if op.Kind != KindOp || op.Name != "knn" || op.Depth != 0 {
		t.Fatalf("op event = %+v", op)
	}
	if op.Dur != 7 || op.Rounds != 2 {
		t.Fatalf("op span dur=%v rounds=%d, want 7 and 2", op.Dur, op.Rounds)
	}
	if op.Breakdown != (Breakdown{CPUSeconds: 1, PIMSeconds: 4.5, CommSeconds: 1.5}) {
		t.Fatalf("op breakdown = %+v", op.Breakdown)
	}
	round := evs[2]
	if round.Kind != KindRound || round.Op != "knn" || round.Phase != "locate" {
		t.Fatalf("round attribution = %+v", round)
	}
	if round.Round.Seq != 1 {
		t.Fatalf("round seq = %d", round.Round.Seq)
	}
	cpu := evs[3]
	if cpu.Kind != KindCPU || cpu.Op != "knn" || cpu.Phase != "locate" {
		t.Fatalf("cpu attribution = %+v", cpu)
	}
	if cpu.Start != 2 { // after the 2s round
		t.Fatalf("cpu start = %v, want 2", cpu.Start)
	}
	nested := evs[4]
	if nested.Kind != KindPhase || nested.Name != "search" || nested.Op != "knn" || nested.Phase != "search" {
		t.Fatalf("nested op event = %+v", nested)
	}
	nestedRound := evs[5]
	if nestedRound.Op != "knn" || nestedRound.Phase != "search" {
		t.Fatalf("nested round attribution = %+v", nestedRound)
	}
}

func TestEndWithoutBeginIsNoop(t *testing.T) {
	r := New()
	r.EndOp() // must not panic or corrupt state
	r.BeginOp("a")
	r.EndOp()
	r.EndPhase() // extra end after the stack drained
	if evs := r.Events(); len(evs) != 1 || evs[0].Name != "a" {
		t.Fatalf("events = %+v", evs)
	}
}

func TestModuleSampling(t *testing.T) {
	r := New()
	r.SetModuleSampling(2)
	calls := 0
	loads := func(cycles, bytes []int64) ([]int64, []int64) {
		calls++
		return append(cycles, 1, 3), append(bytes, 10, 30)
	}
	for i := 0; i < 4; i++ {
		r.RecordRound(RoundInfo{Seconds: 1}, 1, 0, loads)
	}
	if calls != 2 {
		t.Fatalf("loads invoked %d times, want 2 (every 2nd round)", calls)
	}
	var sampled int
	for _, ev := range r.Events() {
		if ev.Profile != nil {
			sampled++
			if ev.Profile.Cycles.Max != 3 || ev.Profile.Active != 2 {
				t.Fatalf("profile = %+v", ev.Profile)
			}
		}
	}
	if sampled != 2 {
		t.Fatalf("%d rounds carry profiles, want 2", sampled)
	}
}

func TestCounterRegistry(t *testing.T) {
	r := New()
	r.Add("splits", 2)
	r.Add("splits", 3)
	c := r.Counters()
	if c["splits"] != 5 {
		t.Fatalf("counters = %+v", c)
	}
	// Counters() returns a copy.
	c["splits"] = 0
	if r.Counters()["splits"] != 5 {
		t.Fatal("Counters returned the live map")
	}
}

func TestLoadProfileQuantiles(t *testing.T) {
	if d := newDist(nil); d != (Dist{}) {
		t.Fatalf("empty dist = %+v", d)
	}
	// Order-independence: reversed input gives identical summaries.
	a := []int64{5, 1, 9, 3, 7}
	b := []int64{7, 3, 9, 1, 5}
	da, db := newDist(a), newDist(b)
	if da != db {
		t.Fatalf("dist depends on order: %+v vs %+v", da, db)
	}
	if da.Max != 9 || da.Mean != 5 || da.P50 != 7 {
		t.Fatalf("dist = %+v", da)
	}

	p := NewLoadProfile([]int64{2, 4, 6}, []int64{1, 1, 1})
	if p.Imbalance != 1.5 { // max 6 / mean 4
		t.Fatalf("imbalance = %v, want 1.5", p.Imbalance)
	}
	// Pure-transfer round: cycles all zero, imbalance falls back to bytes.
	p = NewLoadProfile([]int64{0, 0}, []int64{10, 30})
	if p.Imbalance != 1.5 {
		t.Fatalf("byte-fallback imbalance = %v, want 1.5", p.Imbalance)
	}
	// Nothing moved at all.
	p = NewLoadProfile([]int64{0}, []int64{0})
	if p.Imbalance != 0 {
		t.Fatalf("idle imbalance = %v, want 0", p.Imbalance)
	}
}

func TestExportChromeParses(t *testing.T) {
	r := New()
	r.SetModuleSampling(1)
	r.BeginOp("search")
	r.RecordRound(RoundInfo{ActiveModules: 2, MaxCycles: 10, TotalCycles: 15, Seconds: 2}, 1, 1,
		func(cycles, bytes []int64) ([]int64, []int64) { return append(cycles, 10, 5), append(bytes, 8, 8) })
	r.RecordCPUPhase(CPUInfo{Work: 100, Seconds: 1})
	r.EndOp()
	r.Add("hits", 3)

	var buf bytes.Buffer
	if err := r.ExportChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome output is not JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	var haveSpan, haveRound, haveCounter bool
	for _, ev := range doc.TraceEvents {
		switch ev["name"] {
		case "search":
			haveSpan = true
			args := ev["args"].(map[string]any)
			for _, k := range []string{"cpu_us", "pim_us", "comm_us"} {
				if _, ok := args[k]; !ok {
					t.Fatalf("span args missing %s: %+v", k, args)
				}
			}
		case "round-1":
			haveRound = true
		case "tree-counters":
			haveCounter = true
		}
	}
	if !haveSpan || !haveRound || !haveCounter {
		t.Fatalf("missing events: span=%v round=%v counter=%v", haveSpan, haveRound, haveCounter)
	}
}

func TestExportJSONLValid(t *testing.T) {
	r := New()
	r.BeginOp("insert")
	r.RecordRound(RoundInfo{Seconds: 1}, 1, 0, nil)
	r.EndOp()
	r.Add("splits", 1)

	var buf bytes.Buffer
	if err := r.ExportJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 3 { // op + round + counters
		t.Fatalf("got %d lines:\n%s", len(lines), buf.String())
	}
	for i, ln := range lines {
		if !json.Valid([]byte(ln)) {
			t.Fatalf("line %d invalid JSON: %s", i, ln)
		}
	}
	var last struct {
		Kind     string           `json:"kind"`
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal([]byte(lines[2]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Kind != "counters" || last.Counters["splits"] != 1 {
		t.Fatalf("counters line = %+v", last)
	}
}

func TestWriteViews(t *testing.T) {
	r := New()
	r.SetModuleSampling(1)
	r.BeginOp("search")
	r.BeginPhase("descend")
	r.RecordRound(RoundInfo{ActiveModules: 2, MaxCycles: 4, TotalCycles: 6, Seconds: 2}, 1, 1,
		func(cycles, bytes []int64) ([]int64, []int64) { return append(cycles, 4, 2), append(bytes, 0, 0) })
	r.EndPhase()
	r.EndOp()
	r.Add("hits", 1)

	var spans, rounds, profiles, phases, counters strings.Builder
	r.WriteSpanTree(&spans)
	r.WriteRounds(&rounds)
	r.WriteModuleProfiles(&profiles)
	r.WritePhaseBreakdown(&phases)
	r.WriteCounters(&counters)
	for name, out := range map[string]string{
		"spans": spans.String(), "rounds": rounds.String(),
		"profiles": profiles.String(), "phases": phases.String(),
		"counters": counters.String(),
	} {
		if out == "" {
			t.Fatalf("%s view is empty", name)
		}
	}
	if !strings.Contains(spans.String(), "  descend") {
		t.Fatalf("span tree not indented:\n%s", spans.String())
	}
	if !strings.Contains(rounds.String(), "descend") {
		t.Fatalf("rounds missing phase attribution:\n%s", rounds.String())
	}
	if !strings.Contains(counters.String(), "hits") {
		t.Fatalf("counters view:\n%s", counters.String())
	}
}
