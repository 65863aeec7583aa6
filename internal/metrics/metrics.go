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
	"strings"
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
}

// family is one named metric with its series, keyed by the label values
// joined by labelSep in labels order (an unlabeled family holds exactly
// the "" series).
type family struct {
	opts   Opts
	typ    Type
	bounds []float64 // histogram upper bounds (histograms only)
	labels []string  // label names, in exposition order
	mu     sync.Mutex
	series map[string]*series
}

// labelSep joins series key components. NUL cannot appear in exposition
// label values (escaping covers \ " \n only), and it sorts before every
// printable byte, so joined keys sort exactly like the (v1, v2, ...)
// tuple. A one-label key is the bare value.
const labelSep = "\x00"

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
	trace uint64 // formatted at exposition, not per observation
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

// register creates or fetches a family, enforcing one type, one Opts, one
// bucket layout and one label set per name.
func (r *Registry) register(opts Opts, typ Type, bounds []float64, labels []string) *family {
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
	for _, l := range labels {
		if l == "" {
			panic(fmt.Sprintf("metrics: %s: empty label name", opts.Name))
		}
	}
	f := &family{opts: opts, typ: typ, bounds: bounds, labels: slices.Clone(labels), series: make(map[string]*series)}
	r.families[opts.Name] = f
	return f
}

// cell fetches or creates the series for one series key.
func (f *family) cell(key string) *series {
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[key]
	if !ok {
		s = &series{}
		if f.typ == TypeHistogram {
			s.buckets = make([]uint64, len(f.bounds))
		}
		f.series[key] = s
	}
	return s
}

// handle is the shape every metric handle shares: its family (for the
// lock and the bucket bounds) and its series.
type handle struct {
	f *family
	s *series
}

// Counter is a monotonic total. A nil *Counter discards updates.
type Counter handle

// Gauge is a settable value. A nil *Gauge discards updates.
type Gauge handle

// Histogram is a fixed log-bucket distribution. A nil *Histogram discards
// observations.
type Histogram handle

// Vec is a labeled family of M handles, one per label-value tuple. A nil
// *Vec (from a nil Registry) returns nil handles.
type Vec[M Counter | Gauge | Histogram] struct {
	f  *family
	mu sync.Mutex
	by map[string]*M
}

func newVec[M Counter | Gauge | Histogram](f *family) *Vec[M] {
	return &Vec[M]{f: f, by: make(map[string]*M)}
}

// With returns the handle for one label-value tuple (one value per label
// name, in registration order), creating it on first use. Zero or one
// value allocates nothing once the handle exists; two or more allocate
// the joined key on every call. So only cold paths call a multi-label
// With: serve.New resolves the engine's [op][stage] histograms once up
// front, and SLOTracker.PublishGauges runs on the server's 1 s ticker.
func (v *Vec[M]) With(values ...string) *M {
	if v == nil {
		return nil
	}
	if len(values) != len(v.f.labels) {
		panic(fmt.Sprintf("metrics: %s: %d label values for %d label names", v.f.opts.Name, len(values), len(v.f.labels)))
	}
	key := strings.Join(values, labelSep)
	v.mu.Lock()
	defer v.mu.Unlock()
	m, ok := v.by[key]
	if !ok {
		m = &M{f: v.f, s: v.f.cell(key)}
		v.by[key] = m
	}
	return m
}

// NewCounterVec registers (or fetches) a counter family with the given
// label names.
func (r *Registry) NewCounterVec(opts Opts, labels ...string) *Vec[Counter] {
	if r == nil {
		return nil
	}
	return newVec[Counter](r.register(opts, TypeCounter, nil, labels))
}

// NewGaugeVec registers (or fetches) a gauge family with the given label
// names. A fixed-label info gauge (build_info) is
// NewGaugeVec(opts, names...).With(values...).
func (r *Registry) NewGaugeVec(opts Opts, labels ...string) *Vec[Gauge] {
	if r == nil {
		return nil
	}
	return newVec[Gauge](r.register(opts, TypeGauge, nil, labels))
}

// NewHistogramVec registers (or fetches) a histogram family with the
// given label names.
func (r *Registry) NewHistogramVec(opts HistogramOpts, labels ...string) *Vec[Histogram] {
	if r == nil {
		return nil
	}
	return newVec[Histogram](r.register(opts.Opts, TypeHistogram, opts.bounds(), labels))
}

// NewCounter registers (or fetches) an unlabeled counter.
func (r *Registry) NewCounter(opts Opts) *Counter { return r.NewCounterVec(opts).With() }

// NewGauge registers (or fetches) an unlabeled gauge.
func (r *Registry) NewGauge(opts Opts) *Gauge { return r.NewGaugeVec(opts).With() }

// NewHistogram registers (or fetches) an unlabeled histogram.
func (r *Registry) NewHistogram(opts HistogramOpts) *Histogram {
	return r.NewHistogramVec(opts).With()
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

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.f.mu.Lock()
	g.s.val = v
	g.f.mu.Unlock()
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
// is kept). A zero trace degrades to a plain Observe.
func (h *Histogram) ObserveExemplar(v float64, trace uint64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	if trace == 0 {
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
