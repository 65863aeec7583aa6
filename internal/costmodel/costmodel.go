// Package costmodel converts the work and traffic counters collected by
// the PIM simulator (internal/pim) and the LLC simulator (internal/memsim)
// into modeled execution times.
//
// No PIM hardware is available to this reproduction, so all reported
// throughputs are produced by a deterministic analytic model of the two
// machines the paper uses:
//
//   - the UPMEM server: 2x Intel Xeon Silver 4216 (32 threads, 2.1 GHz,
//     22 MB LLC), 8 memory channels populated with UPMEM DIMMs (2048 PIM
//     modules at 350 MHz, ~628 MB/s local bandwidth each) and 4 channels of
//     DDR4-2400; and
//   - the baseline machine: 2x Intel Xeon E5-2630 v4 (20 cores at 2.2 GHz,
//     2x25 MB LLC), 8 channels of DDR4.
//
// The model is a per-phase roofline. For a CPU phase, time is
// max(work/effective-compute-rate, DRAM-traffic/bandwidth). For a PIM
// round, time is mux-switch latency plus the slowest module's cycles plus
// channel transfer time. These are precisely the first-order effects the
// paper's evaluation attributes its results to: baselines become
// memory-bandwidth bound while PIM execution is round- and compute-bound.
package costmodel

import "fmt"

// Machine describes the modeled host (and, if PIM-equipped, the PIM side).
type Machine struct {
	Name string

	// CPU side.
	CPUHz        float64 // core clock
	CPUCores     int     // hardware threads usable by the host program
	CPUIPC       float64 // sustained abstract work units per cycle per core
	LLCBytes     int64   // last-level cache capacity
	LLCWays      int     // associativity
	DRAMBW       float64 // CPU<->DRAM bandwidth, bytes/s
	ParallelEff  float64 // fraction of linear scaling the host achieves
	PointerChase float64 // extra seconds per dependent DRAM miss (latency-bound walks)

	// PIM side (zero for machines without PIM).
	PIMModules   int
	PIMHz        float64 // PIM core clock
	PIMIPC       float64 // abstract work units per cycle per PIM core
	ChannelBW    float64 // aggregate CPU<->PIM transfer bandwidth, bytes/s
	MuxSwitch    float64 // seconds per BSP round for switching MRAM ownership
	PerModuleHdr float64 // per-module per-round launch overhead (SDK path)
}

// UPMEMServer returns the model of the paper's PIM-equipped machine.
func UPMEMServer() Machine {
	return Machine{
		Name:         "upmem-server",
		CPUHz:        2.1e9,
		CPUCores:     32,
		CPUIPC:       1.0,
		LLCBytes:     22 << 20,
		LLCWays:      11,
		DRAMBW:       55e9, // 4 channels DDR4-2400, effective
		ParallelEff:  0.7,
		PointerChase: 80e-9,

		PIMModules:   2048,
		PIMHz:        350e6,
		PIMIPC:       0.8,
		ChannelBW:    16e9,   // effective CPU<->PIM copy bandwidth
		MuxSwitch:    60e-6,  // MRAM mux switch per round
		PerModuleHdr: 0.3e-6, // SDK launch overhead per active module per round
	}
}

// BaselineServer returns the model of the machine the shared-memory
// baselines run on (2x E5-2630 v4).
func BaselineServer() Machine {
	return Machine{
		Name:         "baseline-server",
		CPUHz:        2.2e9,
		CPUCores:     40, // 20 cores x 2 threads
		CPUIPC:       1.0,
		LLCBytes:     50 << 20,
		LLCWays:      20,
		DRAMBW:       110e9, // 8 channels DDR4-2400, effective
		ParallelEff:  0.7,
		PointerChase: 80e-9,
	}
}

// CPUPhase models one parallel host phase: work abstract units executed
// across the cores, traffic bytes crossing the DRAM bus, and chase counting
// serially-dependent misses (critical-path pointer chasing, priced at
// latency rather than bandwidth).
func (m Machine) CPUPhase(work int64, trafficBytes int64, chase int64) float64 {
	rate := m.CPUHz * float64(m.CPUCores) * m.CPUIPC * m.ParallelEff
	compute := float64(work) / rate
	memory := float64(trafficBytes) / m.DRAMBW
	t := compute
	if memory > t {
		t = memory
	}
	return t + float64(chase)*m.PointerChase/float64(m.CPUCores)
}

// PIMRound models one BSP round: the mux switch, per-module launch
// overhead for the active modules, the slowest module's compute, and the
// channel transfer of the round's bytes.
func (m Machine) PIMRound(maxModuleCycles int64, bytesTransferred int64, activeModules int, directAPI bool) float64 {
	if m.PIMModules == 0 {
		panic("costmodel: PIMRound on a machine without PIM")
	}
	t := m.MuxSwitch
	if !directAPI {
		t += float64(activeModules) * m.PerModuleHdr
	}
	t += float64(maxModuleCycles) / (m.PIMHz * m.PIMIPC)
	t += float64(bytesTransferred) / m.ChannelBW
	return t
}

// Throughput converts elements processed and modeled seconds into the
// paper's throughput metric (returned elements per second).
func Throughput(elements int, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return float64(elements) / seconds
}

// PerElementTraffic converts total bus bytes and returned elements into the
// paper's per-element memory-traffic metric.
func PerElementTraffic(bytes int64, elements int) float64 {
	if elements == 0 {
		return 0
	}
	return float64(bytes) / float64(elements)
}

// String summarizes the machine.
func (m Machine) String() string {
	if m.PIMModules > 0 {
		return fmt.Sprintf("%s: %d threads @%.1fGHz, LLC %dMB, %d PIM modules @%.0fMHz",
			m.Name, m.CPUCores, m.CPUHz/1e9, m.LLCBytes>>20, m.PIMModules, m.PIMHz/1e6)
	}
	return fmt.Sprintf("%s: %d threads @%.1fGHz, LLC %dMB", m.Name, m.CPUCores, m.CPUHz/1e9, m.LLCBytes>>20)
}

// Abstract work-unit prices the trees charge beyond one unit per simple
// ALU op. On PIM cores, multiplication and division are far slower (the
// paper cites up to 32 cycles on UPMEM), which is what makes the l2 metric
// expensive on the PIM side and motivates the l1-anchored filtering of §6.
const (
	WorkMulPIM = 32 // multiplication on a PIM core (UPMEM, no 32x32 mul unit)
	WorkHeapOp = 8  // priority-queue push/pop (log k with small k)
)

// FutureCXLPIM returns a forward-looking machine projection: a CXL-attached
// PIM pool with four times the channel bandwidth, faster PIM cores, and a
// larger host cache — the directions §7.3 of the paper points at ("future
// systems with larger caches would be advantageous") and the Q2 question
// (does the design stay effective on future PIM systems?) asks about.
func FutureCXLPIM() Machine {
	m := UPMEMServer()
	m.Name = "future-cxl-pim"
	m.LLCBytes = 96 << 20 // larger host cache
	m.PIMHz = 1.0e9       // faster in-order PIM cores
	m.ChannelBW = 64e9    // CXL-class aggregate transfer bandwidth
	m.MuxSwitch = 10e-6   // cheaper ownership switching
	m.PIMModules = 4096
	return m
}
