package metrics

import (
	"bytes"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
)

var updateGoldens = flag.Bool("update", false, "rewrite testdata/*.prom from the current exposition")

// goldenRegistry hand-feeds one registry covering every exposition shape:
// counters, gauges and histograms with 0, 1 and 2 labels, a build_info
// gauge, an exemplar, a label value that needs escaping and a Wall family.
func goldenRegistry() *Registry {
	reg := New()
	buckets := []float64{0.25, 1, 4}

	reg.NewCounter(Opts{Name: "g_plain_total", Help: "Unlabeled counter."}).Add(3)
	ops := reg.NewCounterVec(Opts{Name: "g_ops_total", Help: "One-label counter."}, "op")
	ops.With("search").Add(2)
	ops.With("knn").Add(1)
	ops.With("a\\b\"c\nd").Add(4)
	pair := reg.NewCounterVec(Opts{Name: "g_pair_total", Help: "Two-label counter."}, "op", "shard")
	pair.With("search", "1").Add(5)
	pair.With("insert", "0").Add(6)

	reg.NewGauge(Opts{Name: "g_level", Help: "Unlabeled gauge."}).Set(-1.5)
	reg.NewGaugeVec(Opts{Name: "g_stat", Help: "One-label gauge."}, "stat").With("p99").Set(7)
	burn := reg.NewGaugeVec(Opts{Name: "g_burn", Help: "Two-label gauge."}, "op", "window")
	burn.With("search", "5m").Set(0.125)
	burn.With("search", "1m").Set(2)

	h := reg.NewHistogram(HistogramOpts{Opts: Opts{Name: "g_round_seconds", Help: "Unlabeled histogram."},
		Buckets: buckets})
	h.Observe(0.1)
	h.ObserveExemplar(2, 42)
	h.ObserveExemplar(9, 43)
	reg.NewHistogramVec(HistogramOpts{Opts: Opts{Name: "g_op_seconds", Help: "One-label histogram."},
		Buckets: buckets}, "op").With("knn").Observe(0.5)
	stage := reg.NewHistogramVec(HistogramOpts{Opts: Opts{Name: "g_stage_seconds", Help: "Two-label histogram."},
		Buckets: buckets}, "op", "stage")
	stage.With("search", "queue").Observe(0.25)
	stage.With("knn", "exec").ObserveExemplar(3, 7)

	reg.NewGaugeVec(Opts{Name: "g_build_info", Help: "Build identity.", Wall: true},
		"go_version", "trees").With("go1.x", "4").Set(1)
	reg.NewHistogramVec(HistogramOpts{Opts: Opts{Name: "g_wall_seconds", Help: "Wall histogram.\nSecond line.",
		Wall: true}, Buckets: buckets}, "op").With("search").Observe(1)
	return reg
}

// TestExpositionGoldens pins the admin /metrics bytes of goldenRegistry in
// its three views. Regenerate with `go test ./internal/metrics -run
// TestExpositionGoldens -update` only for a deliberate format change.
func TestExpositionGoldens(t *testing.T) {
	h := NewAdminHandler(AdminConfig{Registry: goldenRegistry()})
	for _, c := range []struct{ query, file string }{
		{"", "full.prom"},
		{"?modeled=1", "modeled.prom"},
		{"?exemplars=1", "exemplars.prom"},
	} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", "/metrics"+c.query, nil))
		got := w.Body.Bytes()
		path := filepath.Join("testdata", c.file)
		if *updateGoldens {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("/metrics%s differs from %s:\n%s", c.query, path, got)
		}
	}
}
