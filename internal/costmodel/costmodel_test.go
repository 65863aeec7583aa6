package costmodel

import (
	"strings"
	"testing"
)

func TestCPUPhaseRoofline(t *testing.T) {
	m := BaselineServer()
	// Pure compute: no traffic.
	tc := m.CPUPhase(1e9, 0, 0)
	// Pure memory: enough traffic to dominate.
	tm := m.CPUPhase(0, 1e12, 0)
	if tc <= 0 || tm <= 0 {
		t.Fatal("phase times must be positive")
	}
	// Roofline: combined phase is the max, not the sum.
	both := m.CPUPhase(1e9, 1e12, 0)
	if both != tm && both != tc {
		t.Fatalf("roofline violated: both=%g tc=%g tm=%g", both, tc, tm)
	}
	if both < tc || both < tm {
		t.Fatal("max must dominate components")
	}
}

func TestCPUPhaseChaseAddsLatency(t *testing.T) {
	m := BaselineServer()
	base := m.CPUPhase(1000, 0, 0)
	chased := m.CPUPhase(1000, 0, 1000)
	if chased <= base {
		t.Fatal("pointer chasing should add time")
	}
}

func TestPIMRoundComponents(t *testing.T) {
	m := UPMEMServer()
	// Round with nothing still pays the mux switch.
	empty := m.PIMRound(0, 0, 0, true)
	if empty != m.MuxSwitch {
		t.Fatalf("empty round = %g, want mux %g", empty, m.MuxSwitch)
	}
	// Compute scales with the max module cycles.
	slow := m.PIMRound(1e6, 0, 0, true)
	if slow <= empty {
		t.Fatal("module cycles not counted")
	}
	// SDK path adds per-module overhead.
	sdk := m.PIMRound(0, 0, 2048, false)
	direct := m.PIMRound(0, 0, 2048, true)
	if sdk <= direct {
		t.Fatal("SDK overhead missing")
	}
	// Transfers cost channel time.
	xfer := m.PIMRound(0, 1<<30, 0, true)
	if xfer <= empty {
		t.Fatal("transfer bytes not counted")
	}
}

func TestPIMRoundPanicsWithoutPIM(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BaselineServer().PIMRound(0, 0, 0, true)
}

func TestThroughputAndTraffic(t *testing.T) {
	if Throughput(100, 2) != 50 {
		t.Fatal("Throughput wrong")
	}
	if Throughput(100, 0) != 0 {
		t.Fatal("zero time should yield 0")
	}
	if PerElementTraffic(1000, 10) != 100 {
		t.Fatal("PerElementTraffic wrong")
	}
	if PerElementTraffic(1000, 0) != 0 {
		t.Fatal("zero elements should yield 0")
	}
}

func TestMachineConfigsSane(t *testing.T) {
	u := UPMEMServer()
	b := BaselineServer()
	if u.PIMModules != 2048 {
		t.Fatalf("UPMEM modules = %d", u.PIMModules)
	}
	if b.PIMModules != 0 {
		t.Fatal("baseline should have no PIM")
	}
	if u.LLCBytes != 22<<20 {
		t.Fatal("UPMEM LLC size wrong")
	}
	// Aggregate PIM local bandwidth should exceed host DRAM bandwidth —
	// the core architectural advantage the paper leverages.
	pimAggregateBW := float64(u.PIMModules) * 628e6
	if pimAggregateBW <= u.DRAMBW {
		t.Fatal("PIM aggregate bandwidth should exceed host DRAM bandwidth")
	}
}

func TestMachineString(t *testing.T) {
	if !strings.Contains(UPMEMServer().String(), "PIM modules") {
		t.Fatal("UPMEM string should mention PIM")
	}
	if strings.Contains(BaselineServer().String(), "PIM") {
		t.Fatal("baseline string should not mention PIM")
	}
}

func TestWorkConstants(t *testing.T) {
	if WorkMulPIM != 32 {
		t.Fatal("PIM multiply must be modeled at UPMEM's 32 cycles")
	}
	if WorkHeapOp != 8 {
		t.Fatal("heap push/pop work changed")
	}
}

func TestParallelEfficiencyReducesRate(t *testing.T) {
	m := BaselineServer()
	perfect := m
	perfect.ParallelEff = 1.0
	if perfect.CPUPhase(1e9, 0, 0) >= m.CPUPhase(1e9, 0, 0) {
		t.Fatal("parallel efficiency not applied")
	}
}

func TestEnergyModels(t *testing.T) {
	// Zero inputs cost nothing.
	if BaselineEnergy(0, 0) != 0 || PIMEnergy(0, 0, 0, 0, 0) != 0 {
		t.Fatal("zero energy")
	}
	// Moving a byte over the channel must cost more than touching it in
	// PIM-local memory — the architectural premise.
	if EnergyChannelPerByte <= EnergyPIMLocalPerByte {
		t.Fatal("channel energy should exceed PIM-local energy")
	}
	// A traffic-heavy baseline op should cost more than a PIM op that
	// keeps the same bytes local.
	base := BaselineEnergy(100, 64*20)
	pimE := PIMEnergy(100, 0, 64, 100, 64*20)
	if pimE >= base {
		t.Fatalf("PIM energy %g should undercut baseline %g for local work", pimE, base)
	}
	if BaselineEnergy(1000, 0) <= 0 {
		t.Fatal("work energy missing")
	}
}

func TestFutureCXLPIMStrictlyStronger(t *testing.T) {
	u, f := UPMEMServer(), FutureCXLPIM()
	if f.ChannelBW <= u.ChannelBW || f.PIMHz <= u.PIMHz || f.LLCBytes <= u.LLCBytes {
		t.Fatal("future machine should dominate the UPMEM config")
	}
	if f.MuxSwitch >= u.MuxSwitch {
		t.Fatal("future machine should switch faster")
	}
	// The same round must be modeled faster on the future machine.
	if f.PIMRound(1e6, 1<<20, 1024, true) >= u.PIMRound(1e6, 1<<20, 1024, true) {
		t.Fatal("round not faster on future machine")
	}
}
