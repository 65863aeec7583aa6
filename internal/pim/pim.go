// Package pim simulates the Processing-In-Memory model of Kang et al.
// (SPAA'21) that the paper analyzes PIM-zd-tree on: a host CPU plus P PIM
// modules, each pairing a weak core with a private local memory, executing
// in bulk-synchronous parallel (BSP) rounds. PIM modules cannot talk to
// each other; all traffic flows through the CPU over the memory channels.
//
// The simulator only counts. The module code itself runs on the host before
// a round (the callers' traversals, on as many workers as pay off); a round's
// handlers then charge what it cost, one after another on the calling
// goroutine. The PIM-Model metrics are accounted exactly:
//
//   - communication amount: bytes moved CPU->PIM and PIM->CPU,
//   - communication rounds: number of BSP rounds,
//   - PIM time: the maximum per-module cycles within each round,
//   - CPU work: abstract units reported by host phases.
//
// Times are modeled through internal/costmodel; nothing here depends on
// wall-clock measurements, so results are deterministic at any GOMAXPROCS.
package pim

import (
	"fmt"
	"sync"

	"pimzdtree/internal/costmodel"
	"pimzdtree/internal/obs"
)

// Module is one PIM module: a weak core plus its private local memory.
// During a round, a module is touched only by its handler; between rounds,
// only by the host. Counters are therefore plain fields.
type Module struct {
	ID int

	// Per-round accounting, reset by the system at round start.
	cycles    int64
	recvBytes int64
	sendBytes int64

	// Cumulative local-memory footprint (for space-bound experiments).
	storedBytes int64
}

// Work charges n cycles of PIM-core execution to the module in the current
// round.
func (m *Module) Work(n int64) { m.cycles += n }

// Recv records n bytes transferred CPU->module in the current round.
func (m *Module) Recv(n int64) { m.recvBytes += n }

// Send records n bytes transferred module->CPU in the current round.
func (m *Module) Send(n int64) { m.sendBytes += n }

// StoreBytes adjusts the module's modeled local-memory footprint by delta
// (negative to free).
func (m *Module) StoreBytes(delta int64) { m.storedBytes += delta }

// StoredBytes returns the module's modeled local-memory footprint.
func (m *Module) StoredBytes() int64 { return m.storedBytes }

// Metrics accumulates the PIM-Model cost measures. Use Sub to compute the
// delta across an operation and Add to sum systems.
type Metrics struct {
	Rounds        int64
	BytesToPIM    int64
	BytesFromPIM  int64
	PIMCycleSum   int64 // sum over rounds of the max per-module cycles ("PIM time")
	PIMCycleTotal int64 // total cycles across all modules (for utilization)

	CPUWork    int64 // abstract host work units
	CPUTraffic int64 // host DRAM bytes
	CPUChase   int64 // serially-dependent host misses

	// Modeled seconds, decomposed as in the paper's Fig. 6.
	CPUSeconds  float64 // host compute phases
	PIMSeconds  float64 // slowest-module execution within rounds
	CommSeconds float64 // mux switches, launch overhead, channel transfers
}

// TotalSeconds returns the modeled end-to-end time.
func (m Metrics) TotalSeconds() float64 { return m.CPUSeconds + m.PIMSeconds + m.CommSeconds }

// ChannelBytes returns all bytes that crossed the CPU<->PIM channels.
func (m Metrics) ChannelBytes() int64 { return m.BytesToPIM + m.BytesFromPIM }

// BusBytes returns all memory-bus traffic: channel traffic plus host DRAM
// traffic — the quantity behind the paper's per-element traffic metric.
func (m Metrics) BusBytes() int64 { return m.ChannelBytes() + m.CPUTraffic }

// Add returns m + o, field-wise.
func (m Metrics) Add(o Metrics) Metrics {
	return Metrics{
		Rounds:        m.Rounds + o.Rounds,
		BytesToPIM:    m.BytesToPIM + o.BytesToPIM,
		BytesFromPIM:  m.BytesFromPIM + o.BytesFromPIM,
		PIMCycleSum:   m.PIMCycleSum + o.PIMCycleSum,
		PIMCycleTotal: m.PIMCycleTotal + o.PIMCycleTotal,
		CPUWork:       m.CPUWork + o.CPUWork,
		CPUTraffic:    m.CPUTraffic + o.CPUTraffic,
		CPUChase:      m.CPUChase + o.CPUChase,
		CPUSeconds:    m.CPUSeconds + o.CPUSeconds,
		PIMSeconds:    m.PIMSeconds + o.PIMSeconds,
		CommSeconds:   m.CommSeconds + o.CommSeconds,
	}
}

// Sub returns m - o, field-wise.
func (m Metrics) Sub(o Metrics) Metrics {
	return Metrics{
		Rounds:        m.Rounds - o.Rounds,
		BytesToPIM:    m.BytesToPIM - o.BytesToPIM,
		BytesFromPIM:  m.BytesFromPIM - o.BytesFromPIM,
		PIMCycleSum:   m.PIMCycleSum - o.PIMCycleSum,
		PIMCycleTotal: m.PIMCycleTotal - o.PIMCycleTotal,
		CPUWork:       m.CPUWork - o.CPUWork,
		CPUTraffic:    m.CPUTraffic - o.CPUTraffic,
		CPUChase:      m.CPUChase - o.CPUChase,
		CPUSeconds:    m.CPUSeconds - o.CPUSeconds,
		PIMSeconds:    m.PIMSeconds - o.PIMSeconds,
		CommSeconds:   m.CommSeconds - o.CommSeconds,
	}
}

// System is the PIM machine: P modules and the accounting state.
type System struct {
	Machine   costmodel.Machine
	DirectAPI bool // use the improved Direct API (§6); false models SDK overhead

	modules []*Module
	allIDs  []int // cached [0..P) id list served by AllModules

	mu      sync.Mutex
	metrics Metrics

	// Cumulative per-module loads (nil until EnableModuleLoadStats) — the
	// whole-run Fig. 7 skew picture, served live by the admin endpoints.
	loadCycles []int64
	loadBytes  []int64

	// recorder, when non-nil, receives every round and CPU phase (and,
	// through span annotations made by callers, the op/phase hierarchy).
	// Set it before issuing rounds; nil costs one pointer test per event.
	recorder *obs.Recorder
}

// NewSystem returns a system with machine.PIMModules modules.
func NewSystem(machine costmodel.Machine) *System {
	if machine.PIMModules <= 0 {
		panic("pim: machine has no PIM modules")
	}
	s := &System{Machine: machine, DirectAPI: true}
	s.modules = make([]*Module, machine.PIMModules)
	s.allIDs = make([]int, machine.PIMModules)
	for i := range s.modules {
		s.modules[i] = &Module{ID: i}
		s.allIDs[i] = i
	}
	return s
}

// P returns the number of PIM modules.
func (s *System) P() int { return len(s.modules) }

// SetRecorder attaches (or detaches, with nil) the observability recorder.
// Attach before issuing rounds; the pointer is read without locking.
func (s *System) SetRecorder(r *obs.Recorder) { s.recorder = r }

// Recorder returns the attached recorder (nil when tracing is disabled;
// obs.Recorder methods are nil-safe, so callers may use it directly).
func (s *System) Recorder() *obs.Recorder { return s.recorder }

// Module returns module id. The caller must only touch it inside the
// module's own round handler or between rounds.
func (s *System) Module(id int) *Module { return s.modules[id] }

// RoundStats reports what one BSP round did.
type RoundStats struct {
	MaxCycles     int64
	TotalCycles   int64
	BytesToPIM    int64
	BytesFromPIM  int64
	ActiveModules int
	Seconds       float64

	// Straggler is the unique module id with the highest cycle count
	// (bytes break ties; pure-transfer rounds fall back to bytes alone),
	// or -1 when no single module dominates — broadcasts and perfectly
	// balanced rounds blame nobody.
	Straggler int
}

// Round executes one BSP round. handler is invoked for every module id in
// active (each exactly once), one after another on the calling goroutine;
// inside, the handler may call Work/Recv/Send on its module. Rounds are the
// unit the mux-switch overhead is charged to. Passing no active modules
// still counts a round (a barrier crossing), matching the paper's round
// accounting.
func (s *System) Round(active []int, handler func(m *Module)) RoundStats {
	for _, id := range active {
		m := s.modules[id]
		m.cycles, m.recvBytes, m.sendBytes = 0, 0, 0
	}
	for _, id := range active {
		handler(s.modules[id])
	}
	var st RoundStats
	st.ActiveModules = len(active)
	st.Straggler = -1
	var stragBytes int64
	stragUnique := false
	for _, id := range active {
		m := s.modules[id]
		mBytes := m.recvBytes + m.sendBytes
		switch {
		case m.cycles > st.MaxCycles || (m.cycles == st.MaxCycles && mBytes > stragBytes):
			st.Straggler, stragBytes, stragUnique = id, mBytes, true
		case m.cycles == st.MaxCycles && mBytes == stragBytes:
			stragUnique = false
		}
		if m.cycles > st.MaxCycles {
			st.MaxCycles = m.cycles
		}
		st.TotalCycles += m.cycles
		st.BytesToPIM += m.recvBytes
		st.BytesFromPIM += m.sendBytes
	}
	if !stragUnique {
		st.Straggler = -1
	}
	bytes := st.BytesToPIM + st.BytesFromPIM
	st.Seconds = s.Machine.PIMRound(st.MaxCycles, bytes, st.ActiveModules, s.DirectAPI)
	pimSec := float64(st.MaxCycles) / (s.Machine.PIMHz * s.Machine.PIMIPC)

	s.mu.Lock()
	if s.loadCycles != nil {
		for _, id := range active {
			m := s.modules[id]
			s.loadCycles[id] += m.cycles
			s.loadBytes[id] += m.recvBytes + m.sendBytes
		}
	}
	s.metrics.Rounds++
	s.metrics.BytesToPIM += st.BytesToPIM
	s.metrics.BytesFromPIM += st.BytesFromPIM
	s.metrics.PIMCycleSum += st.MaxCycles
	s.metrics.PIMCycleTotal += st.TotalCycles
	s.metrics.PIMSeconds += pimSec
	s.metrics.CommSeconds += st.Seconds - pimSec
	s.mu.Unlock()
	if rec := s.recorder; rec.Enabled() {
		rec.RecordRound(obs.RoundInfo{
			ActiveModules: st.ActiveModules,
			MaxCycles:     st.MaxCycles,
			TotalCycles:   st.TotalCycles,
			BytesToPIM:    st.BytesToPIM,
			BytesFromPIM:  st.BytesFromPIM,
			Seconds:       st.Seconds,
			Straggler:     st.Straggler,
		}, pimSec, st.Seconds-pimSec, func() (cycles, byteLoads []int64) {
			// Modules are quiescent between rounds; the closure runs only
			// for sampled rounds, so unsampled rounds never pay the copy.
			cycles = make([]int64, len(active))
			byteLoads = make([]int64, len(active))
			for i, id := range active {
				m := s.modules[id]
				cycles[i] = m.cycles
				byteLoads[i] = m.recvBytes + m.sendBytes
			}
			return cycles, byteLoads
		})
	}
	return st
}

// AllModules returns the id list [0..P). The slice is cached and shared —
// every Broadcast and full round uses it — so callers must treat it as
// read-only.
func (s *System) AllModules() []int {
	return s.allIDs
}

// Broadcast charges a CPU->all-modules transfer of bytes each, as used when
// replicating L0 structure across modules. It is accounted as one round.
func (s *System) Broadcast(bytesPerModule int64) RoundStats {
	return s.Round(s.AllModules(), func(m *Module) {
		m.Recv(bytesPerModule)
	})
}

// CPUPhase charges a host-side parallel phase: work abstract units, DRAM
// traffic bytes, and chase serially-dependent misses.
func (s *System) CPUPhase(work, traffic, chase int64) {
	sec := s.Machine.CPUPhase(work, traffic, chase)
	s.mu.Lock()
	s.metrics.CPUWork += work
	s.metrics.CPUTraffic += traffic
	s.metrics.CPUChase += chase
	s.metrics.CPUSeconds += sec
	s.mu.Unlock()
	if rec := s.recorder; rec.Enabled() {
		rec.RecordCPUPhase(obs.CPUInfo{Work: work, Traffic: traffic, Chase: chase, Seconds: sec})
	}
}

// Metrics returns a snapshot of the accumulated metrics.
func (s *System) Metrics() Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.metrics
}

// ResetMetrics zeroes the accumulated metrics (module memory footprints
// are preserved — they describe state, not activity).
func (s *System) ResetMetrics() {
	s.mu.Lock()
	s.metrics = Metrics{}
	s.mu.Unlock()
}

// EnableModuleLoadStats starts accumulating per-module cumulative cycle
// and byte loads across rounds (off by default: it costs two adds per
// active module per round). Enable before issuing rounds.
func (s *System) EnableModuleLoadStats() {
	s.mu.Lock()
	if s.loadCycles == nil {
		s.loadCycles = make([]int64, len(s.modules))
		s.loadBytes = make([]int64, len(s.modules))
	}
	s.mu.Unlock()
}

// ModuleLoads returns copies of the cumulative per-module cycle and byte
// loads, indexed by module id (nil, nil when accounting is disabled).
func (s *System) ModuleLoads() (cycles, bytes []int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.loadCycles == nil {
		return nil, nil
	}
	return append([]int64(nil), s.loadCycles...), append([]int64(nil), s.loadBytes...)
}

// StoredBytesTotal returns the summed local-memory footprint across
// modules, and the maximum on any single module.
func (s *System) StoredBytesTotal() (total, max int64) {
	for _, m := range s.modules {
		total += m.storedBytes
		if m.storedBytes > max {
			max = m.storedBytes
		}
	}
	return total, max
}

// ModuleOf hashes a 64-bit key to a module id. This is the randomized
// placement that defeats adversarial targeting of a single module (§3).
// The hash is splitmix64, fixed so placements are reproducible.
func (s *System) ModuleOf(key uint64) int {
	return int(Hash64(key) % uint64(s.P()))
}

// Hash64 is the splitmix64 finalizer, used for module placement.
func Hash64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// Imbalanced reports whether a per-module load assignment is imbalanced
// per Alg. 1's criterion: the busiest module holds more than 3x the mean
// load. loads is indexed by module id (dense; zero entries are idle
// modules), p is the module count the mean is taken over.
func Imbalanced(loads []int, p int) bool {
	var total, max int
	for _, l := range loads {
		total += l
		if l > max {
			max = l
		}
	}
	if max == 0 {
		return false
	}
	mean := float64(total) / float64(p)
	return float64(max) > 3*mean
}

// String describes the system.
func (s *System) String() string {
	return fmt.Sprintf("pim.System{P=%d, direct=%v}", s.P(), s.DirectAPI)
}
