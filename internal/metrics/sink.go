package metrics

import "pimzdtree/internal/obs"

// ObsSink bridges the obs event stream into a Registry: every closed
// operation span becomes an op-latency histogram observation, every BSP
// round and CPU phase feeds the round/traffic/decomposition counters, a
// sampled round's load profile updates the Fig. 7-style skew gauges, and
// the tree's named counter registry mirrors into labeled counter/gauge
// families. One sink may outlive many recorders (the bench CLI attaches a
// fresh recorder per experiment): counters accumulate across all of them.
//
// All inputs are modeled quantities, so everything ObsSink writes is
// deterministic and appears in the modeled-only exposition.
type ObsSink struct {
	ops       *Vec[Counter]
	opSeconds *Vec[Histogram]
	opRounds  *Vec[Counter]

	rounds        *Counter
	roundSeconds  *Histogram
	activeModules *Histogram
	bytesToPIM    *Counter
	bytesFromPIM  *Counter
	cyclesMax     *Counter
	cyclesTotal   *Counter

	modeledSeconds *Vec[Counter]
	cpuSeconds     *Histogram
	cpuWork        *Counter
	cpuTraffic     *Counter
	cpuChase       *Counter

	sampledImbalance *Gauge
	sampledActive    *Gauge
	sampledCycles    *Vec[Gauge]
	sampledBytes     *Vec[Gauge]

	treeCounters *Vec[Counter]
}

// NewObsSink registers the obs-derived metric families on reg and returns
// the sink to attach with Recorder.SetSink. A nil registry yields a nil
// sink; attaching nil to a recorder is a no-op, so the disabled path costs
// nothing.
func NewObsSink(reg *Registry) *ObsSink {
	if reg == nil {
		return nil
	}
	return &ObsSink{
		ops: reg.NewCounterVec(Opts{Name: "pimzd_ops_total",
			Help: "Completed batch operations by op."}, "op"),
		opSeconds: reg.NewHistogramVec(HistogramOpts{Opts: Opts{Name: "pimzd_op_modeled_seconds",
			Help: "Modeled end-to-end latency of completed operations."}}, "op"),
		opRounds: reg.NewCounterVec(Opts{Name: "pimzd_op_rounds_total",
			Help: "BSP communication rounds by op."}, "op"),

		rounds: reg.NewCounter(Opts{Name: "pimzd_rounds_total",
			Help: "Executed BSP rounds."}),
		roundSeconds: reg.NewHistogram(HistogramOpts{Opts: Opts{Name: "pimzd_round_modeled_seconds",
			Help: "Modeled time per BSP round (PIM + communication)."}}),
		activeModules: reg.NewHistogram(HistogramOpts{Opts: Opts{Name: "pimzd_round_active_modules",
			Help: "Active PIM modules per round."}, Buckets: CountBuckets()}),
		bytesToPIM: reg.NewCounter(Opts{Name: "pimzd_bytes_to_pim_total",
			Help: "Bytes transferred CPU->PIM over the memory channels."}),
		bytesFromPIM: reg.NewCounter(Opts{Name: "pimzd_bytes_from_pim_total",
			Help: "Bytes transferred PIM->CPU over the memory channels."}),
		cyclesMax: reg.NewCounter(Opts{Name: "pimzd_pim_cycles_critical_total",
			Help: "Sum over rounds of the slowest module's cycles (PIM time)."}),
		cyclesTotal: reg.NewCounter(Opts{Name: "pimzd_pim_cycles_total",
			Help: "Total PIM cycles across all modules."}),

		modeledSeconds: reg.NewCounterVec(Opts{Name: "pimzd_modeled_seconds_total",
			Help: "Modeled time by component (Fig. 6 decomposition)."}, "component"),
		cpuSeconds: reg.NewHistogram(HistogramOpts{Opts: Opts{Name: "pimzd_cpu_phase_modeled_seconds",
			Help: "Modeled time per host compute phase."}}),
		cpuWork: reg.NewCounter(Opts{Name: "pimzd_cpu_work_total",
			Help: "Abstract host work units."}),
		cpuTraffic: reg.NewCounter(Opts{Name: "pimzd_cpu_traffic_bytes_total",
			Help: "Host DRAM traffic bytes."}),
		cpuChase: reg.NewCounter(Opts{Name: "pimzd_cpu_chase_total",
			Help: "Serially-dependent host cache misses."}),

		sampledImbalance: reg.NewGauge(Opts{Name: "pimzd_sampled_module_imbalance",
			Help: "Max/mean per-module load of the last sampled round."}),
		sampledActive: reg.NewGauge(Opts{Name: "pimzd_sampled_active_modules",
			Help: "Active modules in the last sampled round."}),
		sampledCycles: reg.NewGaugeVec(Opts{Name: "pimzd_sampled_module_cycles",
			Help: "Per-module cycle distribution of the last sampled round."}, "stat"),
		sampledBytes: reg.NewGaugeVec(Opts{Name: "pimzd_sampled_module_bytes",
			Help: "Per-module byte distribution of the last sampled round."}, "stat"),

		treeCounters: reg.NewCounterVec(Opts{Name: "pimzd_tree_events_total",
			Help: "Tree-internals event counters (obs named-counter registry)."}, "event"),
	}
}

// OnSpanEnd aggregates closed operation spans. Phase spans are skipped:
// their per-round attribution already flows through OnRound, and names
// like "wave-3" would fan out into unbounded label cardinality. Ops that
// carry a flight-recorder trace ID attach it as the latency bucket's
// exemplar, linking the histogram to the per-op record.
func (s *ObsSink) OnSpanEnd(e obs.Event) {
	if s == nil || e.Kind != obs.KindOp {
		return
	}
	s.ops.With(e.Name).Add(1)
	s.opSeconds.With(e.Name).ObserveExemplar(e.Dur, e.Trace)
	s.opRounds.With(e.Name).Add(float64(e.Rounds))
}

// OnRound aggregates one BSP round.
func (s *ObsSink) OnRound(e obs.Event) {
	if s == nil || e.Round == nil {
		return
	}
	ri := e.Round
	s.rounds.Add(1)
	s.roundSeconds.Observe(ri.Seconds)
	s.activeModules.Observe(float64(ri.ActiveModules))
	s.bytesToPIM.Add(float64(ri.BytesToPIM))
	s.bytesFromPIM.Add(float64(ri.BytesFromPIM))
	s.cyclesMax.Add(float64(ri.MaxCycles))
	s.cyclesTotal.Add(float64(ri.TotalCycles))
	s.modeledSeconds.With("pim").Add(e.Breakdown.PIMSeconds)
	s.modeledSeconds.With("comm").Add(e.Breakdown.CommSeconds)
	if p := e.Profile; p != nil {
		s.sampledImbalance.Set(p.Imbalance)
		s.sampledActive.Set(float64(p.Active))
		setDist(s.sampledCycles, p.Cycles)
		setDist(s.sampledBytes, p.Bytes)
	}
}

func setDist(v *Vec[Gauge], d obs.Dist) {
	v.With("p50").Set(float64(d.P50))
	v.With("p99").Set(float64(d.P99))
	v.With("max").Set(float64(d.Max))
	v.With("mean").Set(d.Mean)
}

// OnCPUPhase aggregates one host compute phase.
func (s *ObsSink) OnCPUPhase(e obs.Event) {
	if s == nil || e.CPU == nil {
		return
	}
	s.cpuSeconds.Observe(e.CPU.Seconds)
	s.cpuWork.Add(float64(e.CPU.Work))
	s.cpuTraffic.Add(float64(e.CPU.Traffic))
	s.cpuChase.Add(float64(e.CPU.Chase))
	s.modeledSeconds.With("cpu").Add(e.CPU.Seconds)
}

// OnCounter mirrors the obs named-counter registry: Add deltas accumulate
// into the events counter family.
func (s *ObsSink) OnCounter(name string, delta int64) {
	if s == nil {
		return
	}
	if delta > 0 {
		s.treeCounters.With(name).Add(float64(delta))
	}
}
