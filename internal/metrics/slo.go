package metrics

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// SLO tracking: per-op latency objectives evaluated over rolling
// multi-window rings, with error-budget burn rates — the alerting math of
// multiwindow burn-rate SLOs, computed server-side so /snapshot/slo is a
// single curl.
//
// Each objective says "fraction Target of <op> requests complete without
// error within LatencySeconds". A request is "good" if it met that,
// "bad" otherwise. Three windows (1m, 5m, 1h) each keep a ring of 60
// time-aligned buckets; Observe lands the request in each ring's current
// bucket and stale buckets are recycled lazily, so Observe is O(windows)
// and allocation-free. The burn rate of a window is
//
//	errorRate / (1 - Target)
//
// — 1.0 means the error budget is being spent exactly as provisioned; a
// 1h budget burning at 14.4 exhausts a 30-day budget in ~2 days (the
// classic page-worthy threshold).
//
// Determinism: the tracker consumes time only through Config.Now, so
// tests inject a manual clock and the snapshot is a pure function of the
// observation sequence. In production wall time feeds it, so everything
// it exports is Wall-marked.

// SLODumpFormat identifies the /snapshot/slo JSON schema version.
const SLODumpFormat = "pimzd-slo-v1"

// SLOObjective is one per-op latency objective.
type SLOObjective struct {
	// Op is the request op the objective covers ("search", "knn", ...).
	Op string
	// LatencySeconds is the latency bound: a request is good iff it
	// completed without error within this wall time.
	LatencySeconds float64
	// Target is the promised good fraction, in (0, 1); out-of-range
	// values default to 0.99.
	Target float64
}

// SLOConfig configures an SLOTracker.
type SLOConfig struct {
	// Objectives are the tracked per-op objectives (required, one per op).
	Objectives []SLOObjective
	// Now is the injected clock (nil = time.Now). Tests pin it for
	// deterministic window arithmetic.
	Now func() time.Time
	// Registry, when non-nil, receives the pimzd_slo_* gauge families
	// (all Wall-marked); PublishGauges refreshes them.
	Registry *Registry
}

// sloWindowDef is one rolling window: n buckets of width each.
type sloWindowDef struct {
	name  string
	width time.Duration
	n     int64
}

// sloWindowDefs are the tracked windows: 60 buckets each, so a window's
// content is exact to 1/60 of its span.
var sloWindowDefs = [3]sloWindowDef{
	{"1m", time.Second, 60},
	{"5m", 5 * time.Second, 60},
	{"1h", time.Minute, 60},
}

// sloBucket is one time-aligned ring slot. slot is the absolute bucket
// index (unix nanos / width); a mismatching slot means the bucket is
// stale and recycles in place.
type sloBucket struct {
	slot       int64
	total, bad uint64
}

// sloSeries is the per-objective state: one ring per window plus
// all-time totals.
type sloSeries struct {
	obj        SLOObjective
	rings      [len(sloWindowDefs)][]sloBucket
	total, bad uint64
}

// SLOTracker evaluates latency objectives over rolling windows. Create
// with NewSLOTracker; a nil tracker discards observations (the disabled
// state, mirroring nil *Registry handles).
type SLOTracker struct {
	mu     sync.Mutex
	now    func() time.Time
	series []*sloSeries // objective order (stable)
	byOp   map[string]*sloSeries

	// gauges (nil handles when Registry was nil)
	gBurn, gErr, gTotal *GaugeVec2
	gLat, gTarget       *GaugeVec
}

// NewSLOTracker builds a tracker and registers its gauge families.
func NewSLOTracker(cfg SLOConfig) *SLOTracker {
	t := &SLOTracker{
		now:  cfg.Now,
		byOp: make(map[string]*sloSeries),
	}
	if t.now == nil {
		t.now = time.Now
	}
	for _, obj := range cfg.Objectives {
		if obj.Op == "" || t.byOp[obj.Op] != nil {
			continue
		}
		if obj.Target <= 0 || obj.Target >= 1 {
			obj.Target = 0.99
		}
		s := &sloSeries{obj: obj}
		for w, def := range sloWindowDefs {
			s.rings[w] = make([]sloBucket, def.n)
		}
		t.series = append(t.series, s)
		t.byOp[obj.Op] = s
	}
	if reg := cfg.Registry; reg != nil {
		t.gBurn = reg.NewGaugeVec2(Opts{Name: "pimzd_slo_burn_rate",
			Help: "Error-budget burn rate per objective window (1 = spending exactly the provisioned budget).",
			Wall: true}, "op", "window")
		t.gErr = reg.NewGaugeVec2(Opts{Name: "pimzd_slo_error_rate",
			Help: "Bad-request fraction per objective window.", Wall: true}, "op", "window")
		t.gTotal = reg.NewGaugeVec2(Opts{Name: "pimzd_slo_window_requests",
			Help: "Requests observed in the objective window.", Wall: true}, "op", "window")
		t.gLat = reg.NewGaugeVec(Opts{Name: "pimzd_slo_objective_latency_seconds",
			Help: "Configured per-op latency objective.", Wall: true, Label: "op"})
		t.gTarget = reg.NewGaugeVec(Opts{Name: "pimzd_slo_objective_target",
			Help: "Configured per-op good-fraction target.", Wall: true, Label: "op"})
		for _, s := range t.series {
			t.gLat.With(s.obj.Op).Set(s.obj.LatencySeconds)
			t.gTarget.With(s.obj.Op).Set(s.obj.Target)
		}
	}
	return t
}

// Enabled reports whether observations are being tracked.
func (t *SLOTracker) Enabled() bool { return t != nil }

// Observe records one completed request against its op's objective (ops
// without an objective are ignored). failed marks requests that errored
// regardless of latency. Allocation-free.
func (t *SLOTracker) Observe(op string, seconds float64, failed bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	s, ok := t.byOp[op]
	if !ok {
		t.mu.Unlock()
		return
	}
	bad := failed || seconds > s.obj.LatencySeconds
	nanos := t.now().UnixNano()
	s.total++
	if bad {
		s.bad++
	}
	for w, def := range sloWindowDefs {
		slot := nanos / int64(def.width)
		b := &s.rings[w][slot%def.n]
		if b.slot != slot {
			b.slot, b.total, b.bad = slot, 0, 0
		}
		b.total++
		if bad {
			b.bad++
		}
	}
	t.mu.Unlock()
}

// SLOWindowStatus is one objective window's rollup.
type SLOWindowStatus struct {
	Window    string  `json:"window"`
	Total     uint64  `json:"total"`
	Bad       uint64  `json:"bad"`
	ErrorRate float64 `json:"error_rate"`
	// BurnRate is ErrorRate / (1 - Target): budget spend speed.
	BurnRate float64 `json:"burn_rate"`
	// BudgetRemaining is the window's unspent budget fraction,
	// 1 - BurnRate (negative once the window alone overspends it).
	BudgetRemaining float64 `json:"budget_remaining"`
}

// SLOObjectiveStatus is one objective's snapshot row.
type SLOObjectiveStatus struct {
	Op             string            `json:"op"`
	LatencySeconds float64           `json:"latency_seconds"`
	Target         float64           `json:"target"`
	Total          uint64            `json:"total"` // all-time
	Bad            uint64            `json:"bad"`
	Windows        []SLOWindowStatus `json:"windows"`
}

// SLOSnapshot is the /snapshot/slo JSON document.
type SLOSnapshot struct {
	Format     string               `json:"format"`
	Objectives []SLOObjectiveStatus `json:"objectives"`
}

// Snapshot rolls the windows up at the current injected time,
// objectives sorted by op.
func (t *SLOTracker) Snapshot() SLOSnapshot {
	snap := SLOSnapshot{Format: SLODumpFormat}
	if t == nil {
		return snap
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	nanos := t.now().UnixNano()
	for _, s := range t.series {
		st := SLOObjectiveStatus{
			Op:             s.obj.Op,
			LatencySeconds: s.obj.LatencySeconds,
			Target:         s.obj.Target,
			Total:          s.total,
			Bad:            s.bad,
		}
		for w, def := range sloWindowDefs {
			nowSlot := nanos / int64(def.width)
			ws := SLOWindowStatus{Window: def.name}
			for i := range s.rings[w] {
				b := &s.rings[w][i]
				if b.slot > nowSlot-def.n && b.slot <= nowSlot {
					ws.Total += b.total
					ws.Bad += b.bad
				}
			}
			if ws.Total > 0 {
				ws.ErrorRate = float64(ws.Bad) / float64(ws.Total)
			}
			ws.BurnRate = ws.ErrorRate / (1 - s.obj.Target)
			ws.BudgetRemaining = 1 - ws.BurnRate
			st.Windows = append(st.Windows, ws)
		}
		snap.Objectives = append(snap.Objectives, st)
	}
	sort.Slice(snap.Objectives, func(i, j int) bool {
		return snap.Objectives[i].Op < snap.Objectives[j].Op
	})
	return snap
}

// PublishGauges refreshes the pimzd_slo_* gauge families from the
// current windows (no-op without a Registry).
func (t *SLOTracker) PublishGauges() {
	if t == nil || t.gBurn == nil {
		return
	}
	snap := t.Snapshot()
	for _, obj := range snap.Objectives {
		for _, w := range obj.Windows {
			t.gBurn.With(obj.Op, w.Window).Set(w.BurnRate)
			t.gErr.With(obj.Op, w.Window).Set(w.ErrorRate)
			t.gTotal.With(obj.Op, w.Window).Set(float64(w.Total))
		}
	}
}

// ReadSLOSnapshot parses a /snapshot/slo JSON document.
func ReadSLOSnapshot(r io.Reader) (*SLOSnapshot, error) {
	var s SLOSnapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, err
	}
	return &s, nil
}
