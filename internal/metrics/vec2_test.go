package metrics

import (
	"bytes"
	"strings"
	"testing"
)

// Two-label families render every (name, value) pair in declaration
// order, series sorted by value tuple, and survive the parser/linter.
func TestVec2Exposition(t *testing.T) {
	reg := New()
	h := reg.NewHistogramVec2(HistogramOpts{Opts: Opts{
		Name: "stage_seconds", Help: "h"},
		Buckets: []float64{1, 2}}, "op", "stage")
	h.With("search", "queue").Observe(0.5)
	h.With("search", "exec").Observe(1.5)
	h.With("knn", "queue").Observe(3)
	g := reg.NewGaugeVec2(Opts{Name: "burn", Help: "b"}, "op", "window")
	g.With("search", "1m").Set(2.5)

	var buf bytes.Buffer
	if err := reg.WriteTextOpts(&buf, ExpoOpts{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`burn{op="search",window="1m"} 2.5`,
		`stage_seconds_bucket{op="knn",stage="queue",le="1"} 0`,
		`stage_seconds_bucket{op="knn",stage="queue",le="+Inf"} 1`,
		`stage_seconds_bucket{op="search",stage="exec",le="2"} 1`,
		`stage_seconds_count{op="search",stage="queue"} 1`,
		`stage_seconds_sum{op="search",stage="queue"} 0.5`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	// Series order: knn sorts before search; within search, exec < queue.
	iKnn := strings.Index(out, `{op="knn",stage="queue"`)
	iExec := strings.Index(out, `{op="search",stage="exec"`)
	iQueue := strings.Index(out, `{op="search",stage="queue"`)
	if !(iKnn < iExec && iExec < iQueue) {
		t.Fatalf("series not in sorted tuple order: knn@%d exec@%d queue@%d", iKnn, iExec, iQueue)
	}
	if err := LintText(strings.NewReader(out)); err != nil {
		t.Fatalf("lint: %v", err)
	}
	if _, err := ParseText(strings.NewReader(out)); err != nil {
		t.Fatalf("parse: %v", err)
	}
}

// A fixed-label info gauge renders its pairs in declaration order and a
// re-registration with different labels panics.
func TestLabeledGauge(t *testing.T) {
	reg := New()
	g := reg.NewLabeledGauge(Opts{Name: "build_info", Help: "b", Wall: true},
		[]string{"go_version", "engine", "trees"},
		[]string{"go1.x", "shard", "4"})
	g.Set(1)
	var buf bytes.Buffer
	if err := reg.WriteTextOpts(&buf, ExpoOpts{}); err != nil {
		t.Fatal(err)
	}
	want := `build_info{go_version="go1.x",engine="shard",trees="4"} 1`
	if !strings.Contains(buf.String(), want+"\n") {
		t.Fatalf("exposition missing %q\n%s", want, buf.String())
	}
	// Wall-marked: excluded from the modeled-only exposition.
	buf.Reset()
	if err := reg.WriteTextOpts(&buf, ExpoOpts{ModeledOnly: true}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "build_info") {
		t.Fatal("Wall-marked info gauge leaked into modeled-only exposition")
	}

	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on label mismatch")
		}
	}()
	reg.NewLabeledGauge(Opts{Name: "build_info", Help: "b", Wall: true},
		[]string{"other"}, []string{"x"})
}

// Nil-registry Vec2 constructors return nil handles that accept updates.
func TestVec2NilSafety(t *testing.T) {
	var reg *Registry
	reg.NewHistogramVec2(HistogramOpts{Opts: Opts{Name: "h"}}, "a", "b").With("x", "y").Observe(1)
	reg.NewGaugeVec2(Opts{Name: "g"}, "a", "b").With("x", "y").Set(1)
	reg.NewLabeledGauge(Opts{Name: "i"}, []string{"a"}, []string{"x"}).Set(1)
}
