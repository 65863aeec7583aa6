package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"
)

// manualClock is an injectable clock for deterministic window tests.
type manualClock struct{ t time.Time }

func (c *manualClock) now() time.Time          { return c.t }
func (c *manualClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestTracker(reg *Registry) (*SLOTracker, *manualClock) {
	clk := &manualClock{t: time.Unix(1_000_000, 0)}
	t := NewSLOTracker(SLOConfig{
		Objectives: []SLOObjective{
			{Op: "search", LatencySeconds: 0.010, Target: 0.99},
			{Op: "knn", LatencySeconds: 0.050, Target: 0.9},
		},
		Now:      clk.now,
		Registry: reg,
	})
	return t, clk
}

// Burn rate math: errorRate / (1 - target), per window, deterministic
// under the injected clock.
func TestSLOBurnRate(t *testing.T) {
	tr, clk := newTestTracker(nil)
	// 98 good + 2 bad search requests inside one second: 2% errors
	// against a 1% budget → burn rate 2 in every window.
	for i := 0; i < 98; i++ {
		tr.Observe("search", 0.001, false)
	}
	tr.Observe("search", 0.5, false) // over the latency bound → bad
	tr.Observe("search", 0.001, true)
	tr.Observe("ignored", 1, true) // no objective → dropped
	snap := tr.Snapshot()
	if len(snap.Objectives) != 2 {
		t.Fatalf("objectives = %d, want 2", len(snap.Objectives))
	}
	// Sorted by op: knn first, search second.
	if snap.Objectives[0].Op != "knn" || snap.Objectives[1].Op != "search" {
		t.Fatalf("objective order: %q, %q", snap.Objectives[0].Op, snap.Objectives[1].Op)
	}
	se := snap.Objectives[1]
	if se.Total != 100 || se.Bad != 2 {
		t.Fatalf("search totals = %d/%d, want 100/2", se.Bad, se.Total)
	}
	for _, w := range se.Windows {
		if w.Total != 100 || w.Bad != 2 {
			t.Fatalf("window %s totals = %d/%d, want 100/2", w.Window, w.Bad, w.Total)
		}
		if math.Abs(w.ErrorRate-0.02) > 1e-12 || math.Abs(w.BurnRate-2.0) > 1e-9 {
			t.Fatalf("window %s error=%v burn=%v", w.Window, w.ErrorRate, w.BurnRate)
		}
		if math.Abs(w.BudgetRemaining-(-1.0)) > 1e-9 {
			t.Fatalf("window %s budget remaining = %v, want -1", w.Window, w.BudgetRemaining)
		}
	}

	// Advance 61 s: the 1m window has rolled past the bad requests, the
	// 5m and 1h windows still see them.
	clk.advance(61 * time.Second)
	snap = tr.Snapshot()
	se = snap.Objectives[1]
	byName := map[string]SLOWindowStatus{}
	for _, w := range se.Windows {
		byName[w.Window] = w
	}
	if w := byName["1m"]; w.Total != 0 || w.BurnRate != 0 {
		t.Fatalf("1m window after 61s: %+v", w)
	}
	if w := byName["5m"]; w.Total != 100 || w.Bad != 2 {
		t.Fatalf("5m window after 61s: %+v", w)
	}
	if w := byName["1h"]; w.Total != 100 || w.Bad != 2 {
		t.Fatalf("1h window after 61s: %+v", w)
	}

	// Advance past 1h: everything rolls off; all-time totals persist.
	clk.advance(time.Hour)
	snap = tr.Snapshot()
	se = snap.Objectives[1]
	for _, w := range se.Windows {
		if w.Total != 0 {
			t.Fatalf("window %s after 1h: %+v", w.Window, w)
		}
	}
	if se.Total != 100 || se.Bad != 2 {
		t.Fatalf("all-time totals lost: %d/%d", se.Bad, se.Total)
	}
}

// Ring reuse: a bucket revisited a full ring later recycles in place and
// old contents never resurface.
func TestSLORingRecycle(t *testing.T) {
	tr, clk := newTestTracker(nil)
	tr.Observe("search", 1, false) // bad (over bound)
	clk.advance(60 * time.Second)  // same 1m ring slot, new absolute slot
	tr.Observe("search", 0.001, false)
	snap := tr.Snapshot()
	se := snap.Objectives[1]
	for _, w := range se.Windows {
		switch w.Window {
		case "1m":
			if w.Total != 1 || w.Bad != 0 {
				t.Fatalf("1m recycled slot kept stale counts: %+v", w)
			}
		case "5m", "1h":
			if w.Total != 2 || w.Bad != 1 {
				t.Fatalf("%s window: %+v", w.Window, w)
			}
		}
	}
}

// Two identical observation sequences produce byte-identical snapshots,
// and the JSON dump round-trips.
func TestSLODeterminism(t *testing.T) {
	run := func() string {
		tr, clk := newTestTracker(nil)
		for i := 0; i < 50; i++ {
			tr.Observe("search", float64(i)*0.001, i%7 == 0)
			tr.Observe("knn", float64(i)*0.002, false)
			clk.advance(137 * time.Millisecond)
		}
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(tr.Snapshot()); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("snapshots differ:\n%s\n---\n%s", a, b)
	}
	snap, err := ReadSLOSnapshot(strings.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Format != SLODumpFormat {
		t.Fatalf("format = %q", snap.Format)
	}
}

// Gauges publish Wall-marked families with {op,window} labels.
func TestSLOGauges(t *testing.T) {
	reg := New()
	tr, _ := newTestTracker(reg)
	tr.Observe("search", 1, false) // bad
	tr.PublishGauges()
	var buf bytes.Buffer
	if err := reg.WriteTextOpts(&buf, ExpoOpts{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`pimzd_slo_window_requests{op="search",window="1h"} 1`,
		`pimzd_slo_error_rate{op="search",window="5m"} 1`,
		`pimzd_slo_objective_latency_seconds{op="search"} 0.01`,
		`pimzd_slo_objective_target{op="knn"} 0.9`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Burn rate = 1/(1-0.99): ~100 up to float rounding of the budget.
	burnLine := `pimzd_slo_burn_rate{op="search",window="1m"} `
	i := strings.Index(out, burnLine)
	if i < 0 {
		t.Fatalf("exposition missing %q", burnLine)
	}
	rest := out[i+len(burnLine):]
	val, err := strconv.ParseFloat(rest[:strings.IndexByte(rest, '\n')], 64)
	if err != nil || math.Abs(val-100) > 1e-6 {
		t.Fatalf("burn rate gauge = %q (%v), want ~100", rest[:strings.IndexByte(rest, '\n')], err)
	}
	// Everything SLO is Wall-marked: modeled-only exposition stays clean.
	buf.Reset()
	if err := reg.WriteTextOpts(&buf, ExpoOpts{ModeledOnly: true}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "pimzd_slo") {
		t.Fatal("SLO families leaked into modeled-only exposition")
	}

	// Nil tracker: every method is a no-op.
	var nilT *SLOTracker
	nilT.Observe("search", 1, true)
	nilT.PublishGauges()
	if nilT.Enabled() {
		t.Fatal("nil tracker enabled")
	}
	if s := nilT.Snapshot(); s.Format != SLODumpFormat || len(s.Objectives) != 0 {
		t.Fatalf("nil snapshot: %+v", s)
	}
}
