package metrics

import (
	"bytes"
	"strings"
	"testing"
)

// exemplarReg builds a registry with one two-bound histogram so bucket
// assignment covers the finite buckets and the +Inf overflow slot.
func exemplarReg() (*Registry, *Histogram) {
	reg := New()
	h := reg.NewHistogram(HistogramOpts{
		Opts:    Opts{Name: "h", Help: "test"},
		Buckets: []float64{1, 10},
	})
	return reg, h
}

func expoText(t *testing.T, reg *Registry, opts ExpoOpts) string {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WriteTextOpts(&buf, opts); err != nil {
		t.Fatalf("WriteTextOpts: %v", err)
	}
	return buf.String()
}

func TestExemplarBucketAssignment(t *testing.T) {
	reg, h := exemplarReg()
	h.ObserveExemplar(0.5, 101) // le=1 bucket
	h.ObserveExemplar(5, 102)   // le=10 bucket
	h.ObserveExemplar(50, 103)  // +Inf overflow bucket

	out := expoText(t, reg, ExpoOpts{Exemplars: true})
	for _, want := range []string{
		`h_bucket{le="1"} 1 # {trace_id="101"} 0.5`,
		`h_bucket{le="10"} 2 # {trace_id="102"} 5`,
		`h_bucket{le="+Inf"} 3 # {trace_id="103"} 50`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	// Newest exemplar per bucket wins.
	h.ObserveExemplar(0.25, 104)
	out = expoText(t, reg, ExpoOpts{Exemplars: true})
	if !strings.Contains(out, `h_bucket{le="1"} 2 # {trace_id="104"} 0.25`) {
		t.Errorf("newest exemplar did not replace the old one:\n%s", out)
	}
	if strings.Contains(out, `trace_id="101"`) {
		t.Errorf("stale exemplar survived:\n%s", out)
	}
}

// The exemplar flag must be purely additive: with it off, a histogram fed
// through ObserveExemplar renders byte-identically to one fed through plain
// Observe. The golden modeled-only exposition depends on this.
func TestExemplarOffByteIdentical(t *testing.T) {
	regA, hA := exemplarReg()
	regB, hB := exemplarReg()
	for _, v := range []float64{0.5, 5, 50} {
		hA.ObserveExemplar(v, 42)
		hB.Observe(v)
	}
	plainA := expoText(t, regA, ExpoOpts{})
	plainB := expoText(t, regB, ExpoOpts{})
	if plainA != plainB {
		t.Fatalf("exemplar-off exposition differs:\n%s\nvs\n%s", plainA, plainB)
	}
	if strings.Contains(plainA, " # ") {
		t.Fatalf("exemplar leaked into unflagged exposition:\n%s", plainA)
	}
	// A zero trace degrades to a plain Observe even with the flag on.
	hB.ObserveExemplar(0.5, 0)
	if out := expoText(t, regB, ExpoOpts{Exemplars: true}); strings.Contains(out, " # ") {
		t.Fatalf("empty-trace exemplar rendered:\n%s", out)
	}
}

func TestExemplarParseAndLintRoundTrip(t *testing.T) {
	reg, h := exemplarReg()
	h.ObserveExemplar(5, 7)
	out := expoText(t, reg, ExpoOpts{Exemplars: true})

	if err := LintText(strings.NewReader(out)); err != nil {
		t.Fatalf("lint rejected writer output: %v", err)
	}
	fams, err := ParseText(strings.NewReader(out))
	if err != nil {
		t.Fatalf("ParseText: %v", err)
	}
	var found bool
	for _, f := range fams {
		for _, s := range f.Samples {
			if s.Exemplar == nil {
				continue
			}
			found = true
			if s.Exemplar.Labels["trace_id"] != "7" {
				t.Errorf("exemplar labels = %v, want trace_id=7", s.Exemplar.Labels)
			}
			if s.Exemplar.Value != 5 {
				t.Errorf("exemplar value = %v, want 5", s.Exemplar.Value)
			}
			if !strings.HasSuffix(s.Name, "_bucket") {
				t.Errorf("exemplar on non-bucket sample %s", s.Name)
			}
		}
	}
	if !found {
		t.Fatalf("no exemplar parsed from:\n%s", out)
	}
}

func TestExemplarLintRejections(t *testing.T) {
	cases := []struct {
		name string
		text string
	}{
		{"counter", "# HELP c x\n# TYPE c counter\nc 1 # {trace_id=\"1\"} 1\n"},
		{"gauge", "# HELP g x\n# TYPE g gauge\ng 1 # {trace_id=\"1\"} 1\n"},
		{"sum", "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_sum 1 # {trace_id=\"1\"} 1\nh_count 1\n"},
		{"missing trace_id", "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1 # {span=\"1\"} 1\nh_sum 1\nh_count 1\n"},
		{"value above bound", "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"1\"} 1 # {trace_id=\"1\"} 2\nh_bucket{le=\"+Inf\"} 1\nh_sum 0.5\nh_count 1\n"},
	}
	for _, tc := range cases {
		if err := LintText(strings.NewReader(tc.text)); err == nil {
			t.Errorf("%s: lint accepted invalid exemplar:\n%s", tc.name, tc.text)
		}
	}
}
