package metrics

import (
	"testing"

	"pimzdtree/internal/obs"
)

// TestObsSinkRecordingAllocatesNothing is the allocation gate of the
// watching path a serving tree runs every round: a streaming recorder
// (events not retained) feeding an ObsSink, inside an open op and phase,
// records a BSP round — with its module-load profile sampled — and a CPU
// phase without allocating. The payloads and load vectors it hands the
// sink are the recorder's own scratch, not a box per event.
func TestObsSinkRecordingAllocatesNothing(t *testing.T) {
	reg := New()
	rec := obs.New()
	rec.SetRetainEvents(false)
	rec.SetSink(NewObsSink(reg))
	rec.SetModuleSampling(1)
	rec.BeginOp("knn")
	rec.BeginPhase("wave-0")
	ri := obs.RoundInfo{ActiveModules: 4, MaxCycles: 100, TotalCycles: 250, BytesToPIM: 64, BytesFromPIM: 32, Seconds: 1e-6}
	ci := obs.CPUInfo{Work: 10, Traffic: 640, Chase: 2, Seconds: 3e-7}
	loads := func(cycles, bytes []int64) ([]int64, []int64) {
		return append(cycles, 100, 50, 60, 40), append(bytes, 24, 24, 24, 24)
	}
	round := func() { rec.RecordRound(ri, 8e-7, 2e-7, loads) }
	round() // resolve the labeled series and size the load scratch once
	rec.RecordCPUPhase(ci)
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Errorf("RecordRound with a sink allocated %.1f times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { rec.RecordCPUPhase(ci) }); n != 0 {
		t.Errorf("RecordCPUPhase with a sink allocated %.1f times per call, want 0", n)
	}
	rec.EndPhase()
	rec.EndOp()
}
