// Package metrics is the live-observability layer of the reproduction: a
// dependency-free, deterministic metrics registry that aggregates the
// event stream internal/obs records into scrape-able state — monotonic
// counters, gauges, and fixed log-bucket latency histograms — plus the
// Prometheus text exposition (v0.0.4) that serves it.
//
// Where internal/obs answers "what happened during this run" after the
// fact (span trees, Chrome traces, JSONL diffs), this package answers
// "what is happening right now" for a long-running server: every BSP
// round, CPU phase, closed operation span and tree counter feeds the
// registry as it occurs (see ObsSink), and an admin HTTP server exposes
// the aggregate at any moment.
//
// Determinism contract: metrics derived from modeled quantities (cycles,
// bytes, modeled seconds) are byte-identical across identical runs, like
// everything in obs — histogram buckets are fixed powers of four, names
// and label values serialize sorted, and floats format via
// strconv.FormatFloat with shortest round-trip precision. Wall-clock
// metrics (marked Wall at registration) are real time and therefore vary;
// the exposition writer can exclude them so CI can golden-test the
// modeled remainder.
package metrics

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
)

// Type classifies a metric family for the exposition.
type Type uint8

const (
	// TypeCounter is a monotonically increasing total.
	TypeCounter Type = iota + 1
	// TypeGauge is a value that can go up and down.
	TypeGauge
	// TypeHistogram is a fixed-bucket distribution with sum and count.
	TypeHistogram
)

// String names the type as the exposition format spells it.
func (t Type) String() string {
	switch t {
	case TypeCounter:
		return "counter"
	case TypeGauge:
		return "gauge"
	case TypeHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Opts names a metric family.
type Opts struct {
	Name string // exposition name, e.g. "pimzd_rounds_total"
	Help string // one-line description
	// Wall marks the family as wall-clock-derived: excluded from the
	// modeled-only exposition that CI golden-tests (everything else in the
	// registry must be deterministic run-to-run).
	Wall bool
	// Label is the single label dimension of a Vec family ("" for an
	// unlabeled singleton). One dimension covers every use here (op,
	// phase, component) and keeps series ordering trivially deterministic.
	Label string
}

// family is one named metric with its series (one per label value;
// unlabeled families hold exactly the "" series).
type family struct {
	opts   Opts
	typ    Type
	bounds []float64 // histogram upper bounds (histograms only)
	// labels, when non-nil, makes this a multi-label family: series keys
	// are the label values joined by labelSep in labels order, and
	// opts.Label is empty. Single-label families keep the legacy scheme
	// (key = bare value of opts.Label) so their exposition bytes — and the
	// CI goldens pinning them — are untouched.
	labels []string
	mu     sync.Mutex
	series map[string]*series
}

// labelSep joins multi-label series key components. NUL cannot appear in
// exposition label values (escaping covers \ " \n only), and it sorts
// before every printable byte, so joined keys sort exactly like the
// (v1, v2, ...) tuple.
const labelSep = "\x00"

// joinLabelKey builds the series key of a multi-label family.
func joinLabelKey(values ...string) string {
	switch len(values) {
	case 0:
		return ""
	case 1:
		return values[0]
	case 2:
		return values[0] + labelSep + values[1]
	}
	out := values[0]
	for _, v := range values[1:] {
		out += labelSep + v
	}
	return out
}

// series is the value cell of one (family, label value) pair.
type series struct {
	val     float64  // counter / gauge value
	buckets []uint64 // histogram: observations <= bounds[i] (cumulative at export)
	sum     float64
	count   uint64
	// exem holds at most one exemplar per bucket (index len(buckets) is the
	// +Inf overflow bucket). Allocated lazily on the first ObserveExemplar,
	// so plain histograms pay nothing; the exposition renders exemplars only
	// when asked (ExpoOpts.Exemplars), keeping the golden modeled-only
	// output byte-identical.
	exem []exemplar
}

// exemplar is one OpenMetrics exemplar: the trace ID of a concrete
// observation that landed in a bucket, plus its value. The newest
// observation wins — exemplars point at recent slow ops, not the first
// one ever seen.
type exemplar struct {
	trace string
	val   float64
	ok    bool
}

// Registry holds metric families. The zero value is not used; create with
// New. A nil *Registry is the disabled registry: every constructor returns
// a nil handle and nil handles accept updates as no-ops, mirroring the
// nil-*obs.Recorder convention.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register creates or fetches a family, enforcing one type per name.
func (r *Registry) register(opts Opts, typ Type, bounds []float64) *family {
	return r.registerLabeled(opts, typ, bounds, nil)
}

// registerLabeled is register with an optional multi-label dimension set.
func (r *Registry) registerLabeled(opts Opts, typ Type, bounds []float64, labels []string) *family {
	if opts.Name == "" {
		panic("metrics: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[opts.Name]; ok {
		if f.typ != typ {
			panic(fmt.Sprintf("metrics: %s re-registered as %v (was %v)", opts.Name, typ, f.typ))
		}
		// A silent Opts mismatch would be worse than the type one above:
		// a differing Wall flag leaks wall-clock series into (or drops
		// modeled series from) the golden-tested modeled-only exposition.
		if f.opts != opts {
			panic(fmt.Sprintf("metrics: %s re-registered with different opts (%+v, was %+v)", opts.Name, opts, f.opts))
		}
		if !slices.Equal(f.bounds, bounds) {
			panic(fmt.Sprintf("metrics: %s re-registered with different buckets (%v, was %v)", opts.Name, bounds, f.bounds))
		}
		if !slices.Equal(f.labels, labels) {
			panic(fmt.Sprintf("metrics: %s re-registered with different labels (%v, was %v)", opts.Name, labels, f.labels))
		}
		return f
	}
	f := &family{opts: opts, typ: typ, bounds: bounds, labels: labels, series: make(map[string]*series)}
	r.families[opts.Name] = f
	return f
}

// cell fetches or creates the series for one label value.
func (f *family) cell(label string) *series {
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[label]
	if !ok {
		s = &series{}
		if f.typ == TypeHistogram {
			s.buckets = make([]uint64, len(f.bounds))
		}
		f.series[label] = s
	}
	return s
}

// Counter is a monotonic total. A nil *Counter discards updates.
type Counter struct {
	f *family
	s *series
}

// NewCounter registers (or fetches) an unlabeled counter.
func (r *Registry) NewCounter(opts Opts) *Counter {
	if r == nil {
		return nil
	}
	opts.Label = ""
	f := r.register(opts, TypeCounter, nil)
	return &Counter{f: f, s: f.cell("")}
}

// Add increments the counter. Negative deltas are ignored (counters are
// monotonic by contract).
func (c *Counter) Add(delta float64) {
	if c == nil || delta < 0 {
		return
	}
	c.f.mu.Lock()
	c.s.val += delta
	c.f.mu.Unlock()
}

// SetTotal raises the counter to total if total is larger — the bridge for
// upstream registries (the obs named-counter registry) that report running
// totals rather than deltas.
func (c *Counter) SetTotal(total float64) {
	if c == nil {
		return
	}
	c.f.mu.Lock()
	if total > c.s.val {
		c.s.val = total
	}
	c.f.mu.Unlock()
}

// CounterVec is a counter family with one label dimension.
type CounterVec struct {
	f  *family
	mu sync.Mutex
	by map[string]*Counter
}

// NewCounterVec registers a labeled counter family. opts.Label must name
// the dimension.
func (r *Registry) NewCounterVec(opts Opts) *CounterVec {
	if r == nil {
		return nil
	}
	if opts.Label == "" {
		panic("metrics: CounterVec requires a label name")
	}
	return &CounterVec{f: r.register(opts, TypeCounter, nil), by: make(map[string]*Counter)}
}

// With returns the counter for one label value, creating it on first use.
func (v *CounterVec) With(value string) *Counter {
	if v == nil {
		return nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.by[value]
	if !ok {
		c = &Counter{f: v.f, s: v.f.cell(value)}
		v.by[value] = c
	}
	return c
}

// Gauge is a settable value. A nil *Gauge discards updates.
type Gauge struct {
	f *family
	s *series
}

// NewGauge registers (or fetches) an unlabeled gauge.
func (r *Registry) NewGauge(opts Opts) *Gauge {
	if r == nil {
		return nil
	}
	opts.Label = ""
	f := r.register(opts, TypeGauge, nil)
	return &Gauge{f: f, s: f.cell("")}
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.f.mu.Lock()
	g.s.val = v
	g.f.mu.Unlock()
}

// GaugeVec is a gauge family with one label dimension.
type GaugeVec struct {
	f  *family
	mu sync.Mutex
	by map[string]*Gauge
}

// NewGaugeVec registers a labeled gauge family.
func (r *Registry) NewGaugeVec(opts Opts) *GaugeVec {
	if r == nil {
		return nil
	}
	if opts.Label == "" {
		panic("metrics: GaugeVec requires a label name")
	}
	return &GaugeVec{f: r.register(opts, TypeGauge, nil), by: make(map[string]*Gauge)}
}

// With returns the gauge for one label value, creating it on first use.
func (v *GaugeVec) With(value string) *Gauge {
	if v == nil {
		return nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	g, ok := v.by[value]
	if !ok {
		g = &Gauge{f: v.f, s: v.f.cell(value)}
		v.by[value] = g
	}
	return g
}

// GaugeVec2 is a gauge family with two label dimensions.
type GaugeVec2 struct {
	f  *family
	mu sync.Mutex
	by map[[2]string]*Gauge
}

// NewGaugeVec2 registers a two-label gauge family. opts.Label must be
// empty (the dimensions come from label1/label2).
func (r *Registry) NewGaugeVec2(opts Opts, label1, label2 string) *GaugeVec2 {
	if r == nil {
		return nil
	}
	if label1 == "" || label2 == "" {
		panic("metrics: GaugeVec2 requires two label names")
	}
	if opts.Label != "" {
		panic("metrics: GaugeVec2 takes labels as arguments, not Opts.Label")
	}
	return &GaugeVec2{f: r.registerLabeled(opts, TypeGauge, nil, []string{label1, label2}), by: make(map[[2]string]*Gauge)}
}

// With returns the gauge for one label-value pair, creating it on first
// use.
func (v *GaugeVec2) With(v1, v2 string) *Gauge {
	if v == nil {
		return nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	key := [2]string{v1, v2}
	g, ok := v.by[key]
	if !ok {
		g = &Gauge{f: v.f, s: v.f.cell(joinLabelKey(v1, v2))}
		v.by[key] = g
	}
	return g
}

// NewLabeledGauge registers a gauge pinned to a fixed label set — the
// build_info idiom: one series whose labels carry the information and
// whose value is 1 (or whatever the caller sets). names and values are
// index-aligned and render in the given order.
func (r *Registry) NewLabeledGauge(opts Opts, names, values []string) *Gauge {
	if r == nil {
		return nil
	}
	if len(names) == 0 || len(names) != len(values) {
		panic(fmt.Sprintf("metrics: %s: labeled gauge needs equal, non-empty name/value sets", opts.Name))
	}
	if opts.Label != "" {
		panic("metrics: NewLabeledGauge takes labels as arguments, not Opts.Label")
	}
	f := r.registerLabeled(opts, TypeGauge, nil, slices.Clone(names))
	return &Gauge{f: f, s: f.cell(joinLabelKey(values...))}
}

// Histogram is a fixed log-bucket distribution. A nil *Histogram discards
// observations.
type Histogram struct {
	f *family
	s *series
}

// HistogramOpts extends Opts with the bucket layout.
type HistogramOpts struct {
	Opts
	// Buckets are the upper bounds, strictly increasing. nil defaults to
	// SecondsBuckets().
	Buckets []float64
}

func (o *HistogramOpts) bounds() []float64 {
	if o.Buckets == nil {
		return SecondsBuckets()
	}
	for i := 1; i < len(o.Buckets); i++ {
		if o.Buckets[i] <= o.Buckets[i-1] {
			panic(fmt.Sprintf("metrics: %s: buckets not strictly increasing", o.Name))
		}
	}
	return o.Buckets
}

// NewHistogram registers (or fetches) an unlabeled histogram.
func (r *Registry) NewHistogram(opts HistogramOpts) *Histogram {
	if r == nil {
		return nil
	}
	opts.Label = ""
	f := r.register(opts.Opts, TypeHistogram, opts.bounds())
	return &Histogram{f: f, s: f.cell("")}
}

// HistogramVec is a histogram family with one label dimension.
type HistogramVec struct {
	f  *family
	mu sync.Mutex
	by map[string]*Histogram
}

// NewHistogramVec registers a labeled histogram family.
func (r *Registry) NewHistogramVec(opts HistogramOpts) *HistogramVec {
	if r == nil {
		return nil
	}
	if opts.Label == "" {
		panic("metrics: HistogramVec requires a label name")
	}
	return &HistogramVec{f: r.register(opts.Opts, TypeHistogram, opts.bounds()), by: make(map[string]*Histogram)}
}

// With returns the histogram for one label value, creating it on first use.
func (v *HistogramVec) With(value string) *Histogram {
	if v == nil {
		return nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	h, ok := v.by[value]
	if !ok {
		h = &Histogram{f: v.f, s: v.f.cell(value)}
		v.by[value] = h
	}
	return h
}

// HistogramVec2 is a histogram family with two label dimensions.
type HistogramVec2 struct {
	f  *family
	mu sync.Mutex
	by map[[2]string]*Histogram
}

// NewHistogramVec2 registers a two-label histogram family. opts.Label
// must be empty (the dimensions come from label1/label2).
func (r *Registry) NewHistogramVec2(opts HistogramOpts, label1, label2 string) *HistogramVec2 {
	if r == nil {
		return nil
	}
	if label1 == "" || label2 == "" {
		panic("metrics: HistogramVec2 requires two label names")
	}
	if opts.Label != "" {
		panic("metrics: HistogramVec2 takes labels as arguments, not Opts.Label")
	}
	f := r.registerLabeled(opts.Opts, TypeHistogram, opts.bounds(), []string{label1, label2})
	return &HistogramVec2{f: f, by: make(map[[2]string]*Histogram)}
}

// With returns the histogram for one label-value pair, creating it on
// first use.
func (v *HistogramVec2) With(v1, v2 string) *Histogram {
	if v == nil {
		return nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	key := [2]string{v1, v2}
	h, ok := v.by[key]
	if !ok {
		h = &Histogram{f: v.f, s: v.f.cell(joinLabelKey(v1, v2))}
		v.by[key] = h
	}
	return h
}

// Observe records one value. Buckets store per-bucket (non-cumulative)
// counts internally; the exposition writer accumulates them, so Observe is
// O(log buckets).
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	f := h.f
	i := sort.SearchFloat64s(f.bounds, v) // first bound >= v
	f.mu.Lock()
	if i < len(h.s.buckets) {
		h.s.buckets[i]++
	}
	h.s.sum += v
	h.s.count++
	f.mu.Unlock()
}

// ObserveExemplar records one value like Observe and attaches trace as the
// exemplar of the bucket the value lands in (the newest exemplar per bucket
// is kept). An empty trace degrades to a plain Observe.
func (h *Histogram) ObserveExemplar(v float64, trace string) {
	if h == nil || math.IsNaN(v) {
		return
	}
	if trace == "" {
		h.Observe(v)
		return
	}
	f := h.f
	i := sort.SearchFloat64s(f.bounds, v) // first bound >= v; len(bounds) = +Inf
	f.mu.Lock()
	if i < len(h.s.buckets) {
		h.s.buckets[i]++
	}
	if h.s.exem == nil {
		h.s.exem = make([]exemplar, len(f.bounds)+1)
	}
	h.s.exem[i] = exemplar{trace: trace, val: v, ok: true}
	h.s.sum += v
	h.s.count++
	f.mu.Unlock()
}

// SecondsBuckets returns the standard latency layout: powers of four from
// 2^-30 s (~1 ns) through 2^8 s (256 s), 20 bounds. Powers of two are
// exactly representable in float64, so bounds — and their shortest
// round-trip decimal forms in the exposition — are platform-independent.
func SecondsBuckets() []float64 {
	return ldexpBuckets(-30, 8)
}

// WallSecondsBuckets returns the wall-clock latency layout for serving
// histograms: powers of two from 2^-24 s (~60 ns) through 2^10 s
// (1024 s), 35 bounds. Compared to SecondsBuckets it is both finer
// (factor-2 instead of factor-4 resolution, so a p999 estimate under
// saturation lands in a narrow bucket instead of smearing across a 4x
// span) and higher-range (queueing delay under overload can push tails
// past SecondsBuckets' top bound, which would collapse the estimate into
// +Inf). Wall-marked families only — the modeled exposition CI
// golden-tests keeps the SecondsBuckets layout.
func WallSecondsBuckets() []float64 {
	var out []float64
	for e := -24; e <= 10; e++ {
		out = append(out, math.Ldexp(1, e))
	}
	return out
}

// CountBuckets returns the standard magnitude layout for dimensionless
// quantities (rounds, cycles, bytes, modules): powers of four from 1
// through 4^12 (~16.8M), 13 bounds.
func CountBuckets() []float64 {
	return ldexpBuckets(0, 24)
}

// ldexpBuckets returns 2^lo, 2^(lo+2), ..., 2^hi.
func ldexpBuckets(lo, hi int) []float64 {
	var out []float64
	for e := lo; e <= hi; e += 2 {
		out = append(out, math.Ldexp(1, e))
	}
	return out
}
