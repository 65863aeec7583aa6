// Package obs is the observability layer of the reproduction: a
// deterministic, zero-overhead-when-disabled recorder of hierarchical
// execution spans (operation -> phase -> BSP round), per-round per-module
// load profiles, and a named counter registry for tree internals.
//
// The paper's central claims are observability claims — load balance
// across 2048 modules (Fig. 7), O(1) vs O(log n) communication rounds,
// and the CPU/PIM/communication decomposition of Fig. 6 — so the same
// attribution is built into the simulator: internal/pim feeds every BSP
// round and host phase into an attached Recorder, internal/core (and the
// baseline trees) annotate operations and phases, and exporters render the
// one event stream as a Chrome trace (Perfetto), JSONL (CI diffing), or
// human tables.
//
// Everything recorded derives from modeled quantities (cycles, bytes,
// modeled seconds), never wall clocks, so two identical runs produce
// byte-identical exports. A nil *Recorder is the disabled state: every
// method is nil-safe and returns immediately, so instrumented code pays
// one pointer test per call site when tracing is off.
package obs

import (
	"fmt"
	"sync"
)

// Kind classifies one recorded event.
type Kind uint8

const (
	// KindOp is a top-level operation span (e.g. "knn", "insert").
	KindOp Kind = iota + 1
	// KindPhase is a nested phase span (e.g. "wave-3", "semisort").
	KindPhase
	// KindRound is one executed BSP round.
	KindRound
	// KindCPU is one host-side compute phase.
	KindCPU
)

// String names the kind for exports.
func (k Kind) String() string {
	switch k {
	case KindOp:
		return "op"
	case KindPhase:
		return "phase"
	case KindRound:
		return "round"
	case KindCPU:
		return "cpu"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Breakdown is the modeled-seconds decomposition of Fig. 6.
type Breakdown struct {
	CPUSeconds  float64
	PIMSeconds  float64
	CommSeconds float64
}

// Total returns the summed modeled time.
func (b Breakdown) Total() float64 { return b.CPUSeconds + b.PIMSeconds + b.CommSeconds }

func (b Breakdown) sub(o Breakdown) Breakdown {
	return Breakdown{
		CPUSeconds:  b.CPUSeconds - o.CPUSeconds,
		PIMSeconds:  b.PIMSeconds - o.PIMSeconds,
		CommSeconds: b.CommSeconds - o.CommSeconds,
	}
}

// RoundInfo carries the PIM-Model counters of one BSP round.
type RoundInfo struct {
	Seq           int64 // assigned by the recorder
	ActiveModules int
	MaxCycles     int64
	TotalCycles   int64
	BytesToPIM    int64
	BytesFromPIM  int64
	Seconds       float64 // total modeled round time (PIM + comm)

	// Straggler is the unique module id with the highest cycle count this
	// round (bytes break ties and stand in for pure-transfer rounds), or -1
	// when no single module dominates. Excluded from JSON so the golden
	// JSONL/Chrome exports stay byte-identical.
	Straggler int `json:"-"`
}

// Utilization returns the fraction of aggregate PIM compute the round
// actually used (total cycles over active modules x the slowest module).
func (ri RoundInfo) Utilization() float64 {
	if ri.MaxCycles == 0 || ri.ActiveModules == 0 {
		return 0
	}
	return float64(ri.TotalCycles) / (float64(ri.MaxCycles) * float64(ri.ActiveModules))
}

// CPUInfo carries the counters of one host compute phase.
type CPUInfo struct {
	Work    int64 // abstract work units
	Traffic int64 // host DRAM bytes
	Chase   int64 // serially-dependent misses
	Seconds float64
}

// Event is one entry of the recorded stream. Span events (KindOp,
// KindPhase) are appended when the span opens and finalized (Dur,
// Breakdown, Rounds) when it closes; round and CPU events are complete at
// append time.
type Event struct {
	Kind  Kind
	Name  string
	Op    string // enclosing operation ("" outside any op)
	Phase string // innermost enclosing phase ("" outside any phase)
	Depth int    // span nesting depth at emission (op = 0)

	Start float64 // modeled seconds since the recorder was attached
	Dur   float64

	// Span payload: the modeled-time decomposition and BSP rounds that
	// occurred within the span.
	Breakdown Breakdown
	Rounds    int64

	// Round / CPU payloads (nil otherwise).
	Round *RoundInfo
	CPU   *CPUInfo

	// Profile is the sampled per-module load snapshot (rounds only, when
	// module sampling is on and this round was sampled).
	Profile *LoadProfile

	// Trace is the per-op trace ID assigned by an attached FlightRecorder
	// (op spans only; 0 when per-op tracing is off). Exporters omit zero
	// values, so enabling capture never perturbs capture-off output.
	Trace uint64
}

// Sink receives the event stream live, as it is recorded — the feed the
// metrics registry aggregates continuously (a long-running server cannot
// wait for a post-run export). Methods are invoked with the recorder's
// lock held, in recording order; implementations must be fast and must
// not call back into the Recorder.
type Sink interface {
	// OnSpanEnd delivers a closed op/phase span with its final Dur,
	// Breakdown and Rounds.
	OnSpanEnd(e Event)
	// OnRound delivers one complete BSP round event (Profile set when the
	// round was sampled).
	OnRound(e Event)
	// OnCPUPhase delivers one complete host compute phase event.
	OnCPUPhase(e Event)
	// OnCounter delivers one Add to the named-counter registry.
	OnCounter(name string, delta int64)
}

// spanRef tracks one open span on the recorder stack.
type spanRef struct {
	idx        int // index into events
	startClock float64
	startTotal Breakdown
	startRound int64
}

// Recorder accumulates the event stream. The zero value is not used;
// create with New. A nil *Recorder is the disabled recorder: all methods
// are safe to call and do nothing.
type Recorder struct {
	mu          sync.Mutex
	sampleEvery int64 // profile every Nth round (0 = never)
	retain      bool  // keep completed events for post-run export
	sink        Sink  // live event consumer (nil = none)

	clock  float64   // modeled-time cursor
	total  Breakdown // running decomposition totals
	rounds int64

	events   []Event
	stack    []spanRef
	counters map[string]int64

	// flight, when non-nil, receives one compact OpRecord per top-level op
	// (see flight.go); opTrace is the in-flight op's trace ID.
	flight  *FlightRecorder
	opTrace uint64
}

// New returns an enabled recorder with module-load sampling off and event
// retention on (the post-run-export mode every exporter expects).
func New() *Recorder {
	return &Recorder{retain: true, counters: make(map[string]int64)}
}

// SetSink attaches (or detaches, with nil) a live event consumer. Set it
// before recording; the sink then sees every subsequent round, CPU phase,
// closed span and counter change in order.
func (r *Recorder) SetSink(s Sink) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.sink = s
	r.mu.Unlock()
}

// SetRetainEvents toggles post-run event retention. With retention off the
// recorder becomes a bounded-memory streaming source for a Sink: round and
// CPU events are delivered to the sink but never stored, and completed
// span trees are discarded whenever the span stack empties — a server can
// record forever without growing. Totals, counters and sampling are
// unaffected; Events() reports only what is currently open.
func (r *Recorder) SetRetainEvents(keep bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.retain = keep
	r.mu.Unlock()
}

// SetFlight attaches (or detaches, with nil) a per-op flight recorder:
// every subsequent top-level op span gets a trace ID and publishes an
// OpRecord on close. Exactly one recorder may feed a FlightRecorder at a
// time (the in-flight scratch is owned by the recorder's lock).
func (r *Recorder) SetFlight(f *FlightRecorder) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.flight = f
	r.mu.Unlock()
}

// Enabled reports whether the recorder is collecting. Instrumented code
// uses this to skip building event payloads (names, load snapshots) when
// tracing is off.
func (r *Recorder) Enabled() bool { return r != nil }

// SetModuleSampling makes the recorder capture a per-module load profile
// on every Nth round (1 = every round, 0 = never). Full-suite runs keep
// this low: a profile costs O(active modules) per sampled round.
func (r *Recorder) SetModuleSampling(every int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.sampleEvery = int64(every)
	r.mu.Unlock()
}

// BeginOp opens an operation span. If a span is already open (an operation
// invoked inside another), the new span is recorded as a phase, keeping
// exactly one operation per stack.
func (r *Recorder) BeginOp(name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	kind := KindOp
	if len(r.stack) > 0 {
		kind = KindPhase
	}
	r.push(kind, name)
}

// EndOp closes the innermost span (see EndPhase).
func (r *Recorder) EndOp() { r.end() }

// BeginPhase opens a phase span under the current span.
func (r *Recorder) BeginPhase(name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.push(KindPhase, name)
}

// EndPhase closes the innermost span. Begin/End calls must pair like
// brackets; an End with no open span is a no-op.
func (r *Recorder) EndPhase() { r.end() }

// push opens a span; caller holds r.mu.
func (r *Recorder) push(kind Kind, name string) {
	op, phase := r.attribution()
	var trace uint64
	if kind == KindOp {
		op = name
		if r.flight != nil {
			trace = r.flight.beginOp(name)
			r.opTrace = trace
		}
	} else {
		phase = name
	}
	r.events = append(r.events, Event{
		Kind:  kind,
		Name:  name,
		Op:    op,
		Phase: phase,
		Depth: len(r.stack),
		Start: r.clock,
		Trace: trace,
	})
	r.stack = append(r.stack, spanRef{
		idx:        len(r.events) - 1,
		startClock: r.clock,
		startTotal: r.total,
		startRound: r.rounds,
	})
}

func (r *Recorder) end() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.stack) == 0 {
		return
	}
	ref := r.stack[len(r.stack)-1]
	r.stack = r.stack[:len(r.stack)-1]
	ev := &r.events[ref.idx]
	ev.Dur = r.clock - ref.startClock
	ev.Breakdown = r.total.sub(ref.startTotal)
	ev.Rounds = r.rounds - ref.startRound
	if ev.Kind == KindOp && r.flight != nil && r.opTrace != 0 {
		r.flight.endOp(ev.Breakdown, ev.Rounds)
		r.opTrace = 0
	}
	if r.sink != nil {
		r.sink.OnSpanEnd(*ev)
	}
	if !r.retain && len(r.stack) == 0 {
		r.events = r.events[:0]
	}
}

// attribution returns the enclosing op and innermost phase names; caller
// holds r.mu.
func (r *Recorder) attribution() (op, phase string) {
	for i := len(r.stack) - 1; i >= 0; i-- {
		ev := &r.events[r.stack[i].idx]
		if ev.Kind == KindPhase && phase == "" {
			phase = ev.Name
		}
		if ev.Kind == KindOp {
			op = ev.Name
			break
		}
		if op == "" {
			op = ev.Op
		}
	}
	return op, phase
}

// RecordRound appends one BSP round. pimSec/commSec split the round's
// modeled seconds between slowest-module execution and communication
// overhead (mux switches, launches, transfers). loads, when non-nil, is
// invoked only if this round is sampled and must return the per-active-
// module cycle and byte loads (any order; profiles are order-independent).
func (r *Recorder) RecordRound(ri RoundInfo, pimSec, commSec float64, loads func() (cycles, bytes []int64)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rounds++
	ri.Seq = r.rounds
	if r.flight.opOpen() {
		r.flight.addRound(ri, pimSec, commSec)
	}
	// The event payload is only built for consumers: retained streams and
	// live sinks. A flight-only recorder (streaming, no sink) records per-op
	// rounds above without boxing a RoundInfo per round.
	if r.retain || r.sink != nil {
		op, phase := r.attribution()
		ev := Event{
			Kind:  KindRound,
			Name:  "round",
			Op:    op,
			Phase: phase,
			Depth: len(r.stack),
			Start: r.clock,
			Dur:   ri.Seconds,
			Breakdown: Breakdown{
				PIMSeconds:  pimSec,
				CommSeconds: commSec,
			},
			Round: &ri,
		}
		if r.sampleEvery > 0 && r.rounds%r.sampleEvery == 0 && loads != nil {
			cycles, bytes := loads()
			p := NewLoadProfile(cycles, bytes)
			ev.Profile = &p
		}
		if r.retain {
			r.events = append(r.events, ev)
		}
		if r.sink != nil {
			r.sink.OnRound(ev)
		}
	}
	r.clock += ri.Seconds
	r.total.PIMSeconds += pimSec
	r.total.CommSeconds += commSec
}

// RecordCPUPhase appends one host compute phase.
func (r *Recorder) RecordCPUPhase(ci CPUInfo) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.retain || r.sink != nil {
		op, phase := r.attribution()
		ev := Event{
			Kind:      KindCPU,
			Name:      "cpu",
			Op:        op,
			Phase:     phase,
			Depth:     len(r.stack),
			Start:     r.clock,
			Dur:       ci.Seconds,
			Breakdown: Breakdown{CPUSeconds: ci.Seconds},
			CPU:       &ci,
		}
		if r.retain {
			r.events = append(r.events, ev)
		}
		if r.sink != nil {
			r.sink.OnCPUPhase(ev)
		}
	}
	r.clock += ci.Seconds
	r.total.CPUSeconds += ci.Seconds
}

// Add increments a named counter in the registry (e.g. "lazy-counter-
// syncs", "leaf-splits"). Counter names are exported in sorted order, so
// registration order never affects output.
func (r *Recorder) Add(name string, delta int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters[name] += delta
	if r.sink != nil {
		r.sink.OnCounter(name, delta)
	}
	r.mu.Unlock()
}

// Counters returns a copy of the counter registry.
func (r *Recorder) Counters() map[string]int64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counters))
	for k, v := range r.counters {
		out[k] = v
	}
	return out
}

// Events returns a copy of the event stream. Open spans appear with their
// at-open state (zero Dur).
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// Totals returns the accumulated modeled-time decomposition and the number
// of recorded rounds.
func (r *Recorder) Totals() (Breakdown, int64) {
	if r == nil {
		return Breakdown{}, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total, r.rounds
}
