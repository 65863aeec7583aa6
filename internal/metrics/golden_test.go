package metrics_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pimzdtree/internal/core"
	"pimzdtree/internal/costmodel"
	"pimzdtree/internal/metrics"
	"pimzdtree/internal/obs"
	"pimzdtree/internal/workload"
)

// runRegistry drives a fixed op sequence against a core tree with a
// streaming (retention-free) recorder feeding a fresh registry — the exact
// wiring pimzd-serve and pimzd-bench -serve use — and returns the registry
// plus the tree.
func runRegistry(t *testing.T) (*metrics.Registry, *core.Tree) {
	t.Helper()
	machine := costmodel.UPMEMServer()
	machine.PIMModules = 128

	reg := metrics.New()
	rec := obs.New()
	rec.SetRetainEvents(false)
	rec.SetSink(metrics.NewObsSink(reg))
	rec.SetModuleSampling(2)

	pts := workload.Uniform(7, 4000, 3)
	tree := core.New(core.Config{
		Dims:      3,
		Machine:   machine,
		Tuning:    core.ThroughputOptimized,
		Obs:       rec,
		LoadStats: true,
	}, pts[:3000])
	tree.Search(pts[:500])
	tree.Insert(pts[3000:3500])
	tree.KNN(pts[:100], 4)
	tree.Delete(pts[:200])
	return reg, tree
}

func modeledExposition(t *testing.T) []byte {
	t.Helper()
	reg, _ := runRegistry(t)
	var buf bytes.Buffer
	if err := reg.WriteTextOpts(&buf, metrics.ExpoOpts{ModeledOnly: true}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenModeledExposition is the determinism gate for the live metrics
// path: everything the obs sink feeds is a modeled quantity, so the
// modeled-only exposition of two identical runs must be byte-identical.
func TestGoldenModeledExposition(t *testing.T) {
	e1 := modeledExposition(t)
	e2 := modeledExposition(t)
	if len(e1) == 0 {
		t.Fatal("empty exposition")
	}
	if !bytes.Equal(e1, e2) {
		t.Fatalf("modeled expositions differ between identical runs:\n%s", firstDiff(e1, e2))
	}
	if err := metrics.LintText(bytes.NewReader(e1)); err != nil {
		t.Fatalf("lint: %v", err)
	}
	for _, want := range []string{
		"pimzd_ops_total{op=", "pimzd_rounds_total", "pimzd_op_modeled_seconds_bucket",
		"pimzd_modeled_seconds_total{component=\"cpu\"}",
		"pimzd_modeled_seconds_total{component=\"pim\"}",
		"pimzd_sampled_module_imbalance",
	} {
		if !bytes.Contains(e1, []byte(want)) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestAdminEndpoints drives the full admin surface through httptest.
func TestAdminEndpoints(t *testing.T) {
	reg, tree := runRegistry(t)
	srv := httptest.NewServer(metrics.NewAdminHandler(metrics.AdminConfig{
		Registry:    reg,
		TreeStats:   func() any { return tree.Stats() },
		ModuleLoads: tree.System().ModuleLoads,
	}))
	defer srv.Close()

	get := func(path string) (int, string, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
	}

	if code, body, _ := get("/healthz"); code != 200 || strings.TrimSpace(body) != "ok" {
		t.Fatalf("/healthz: %d %q", code, body)
	}
	code, body, ctype := get("/metrics?modeled=1")
	if code != 200 || ctype != metrics.ContentType {
		t.Fatalf("/metrics: %d content-type %q", code, ctype)
	}
	if err := metrics.LintText(strings.NewReader(body)); err != nil {
		t.Fatalf("/metrics lint: %v", err)
	}
	if code, body, _ := get("/snapshot/tree"); code != 200 || !strings.Contains(body, "\"Points\"") {
		t.Fatalf("/snapshot/tree: %d %q", code, body)
	}
	code, body, _ = get("/snapshot/modules")
	if code != 200 {
		t.Fatalf("/snapshot/modules: %d", code)
	}
	var snap metrics.ModuleSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/snapshot/modules decode: %v", err)
	}
	if snap.P != 128 || snap.Active == 0 || snap.Imbalance < 1 {
		t.Fatalf("module snapshot implausible: %+v", snap)
	}
	if len(snap.CyclesPerModule) != snap.P {
		t.Fatalf("dense cycles vector has %d entries, want %d", len(snap.CyclesPerModule), snap.P)
	}
	if code, _, _ := get("/debug/pprof/cmdline"); code != 200 {
		t.Fatalf("/debug/pprof/cmdline: %d", code)
	}
	if code, _, _ := get("/nope"); code != 404 {
		t.Fatalf("/nope: %d, want 404", code)
	}

	// Unconfigured sources 404 rather than panic.
	bare := httptest.NewServer(metrics.NewAdminHandler(metrics.AdminConfig{Registry: reg}))
	defer bare.Close()
	for _, path := range []string{"/snapshot/tree", "/snapshot/modules"} {
		resp, err := http.Get(bare.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 404 {
			t.Fatalf("bare %s: %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestStartAdmin exercises the listener wrapper on an ephemeral port.
func TestStartAdmin(t *testing.T) {
	reg := metrics.New()
	reg.NewCounter(metrics.Opts{Name: "x_total", Help: "x"}).Add(1)
	srv, err := metrics.StartAdmin("127.0.0.1:0", metrics.AdminConfig{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "x_total 1") {
		t.Fatalf("missing counter in %q", body)
	}
}

// TestHealthGate: a failing health check must surface as 503.
func TestHealthGate(t *testing.T) {
	h := metrics.NewAdminHandler(metrics.AdminConfig{
		Health: func() error { return fmt.Errorf("warming up") },
	})
	req := httptest.NewRequest("GET", "/healthz", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while unhealthy: %d, want 503", w.Code)
	}
}

func firstDiff(a, b []byte) string {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := max(i-60, 0)
			hi := min(i+60, n)
			return fmt.Sprintf("first diff at byte %d:\n%s\nvs\n%s", i, a[lo:hi], b[lo:hi])
		}
	}
	return "one exposition is a prefix of the other"
}
