package metrics

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"
)

// Nil handles are the disabled path: every update on them must be a no-op,
// mirroring the nil *obs.Recorder idiom.
func TestNilSafety(t *testing.T) {
	var reg *Registry
	reg.NewCounter(Opts{Name: "c"}).Add(1)
	reg.NewCounterVec(Opts{Name: "cv", Label: "l"}).With("x").Add(1)
	reg.NewGauge(Opts{Name: "g"}).Set(3)
	reg.NewGaugeVec(Opts{Name: "gv", Label: "l"}).With("x").Set(3)
	reg.NewHistogram(HistogramOpts{Opts: Opts{Name: "h"}}).Observe(0.5)
	reg.NewHistogramVec(HistogramOpts{Opts: Opts{Name: "hv", Label: "l"}}).With("x").Observe(0.5)
	if err := reg.WriteTextOpts(&bytes.Buffer{}, ExpoOpts{}); err != nil {
		t.Fatal(err)
	}
	if NewObsSink(nil) != nil {
		t.Fatal("NewObsSink(nil) must return nil")
	}
}

func TestCounterAndGauge(t *testing.T) {
	reg := New()
	c := reg.NewCounter(Opts{Name: "c", Help: "h"})
	c.Add(2)
	c.Add(3)
	if got := c.s.val; got != 5 {
		t.Fatalf("counter = %v, want 5", got)
	}
	c.SetTotal(10)
	if got := c.s.val; got != 10 {
		t.Fatalf("counter after SetTotal = %v, want 10", got)
	}
	g := reg.NewGaugeVec(Opts{Name: "g", Label: "k"})
	g.With("a").Set(1)
	g.With("a").Set(7)
	if got := g.With("a").s.val; got != 7 {
		t.Fatalf("gauge = %v, want 7", got)
	}
	// Re-registering the same family (identical opts) returns the same cells.
	if reg.NewCounter(Opts{Name: "c", Help: "h"}).s.val != 10 {
		t.Fatal("re-registration must share state")
	}
}

// Re-registering a name with differing Opts (or bucket layout) must panic,
// like the existing type-mismatch check: a silently divergent Wall flag
// would corrupt the modeled-only exposition CI golden-tests.
func TestRegisterMismatchPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	reg := New()
	reg.NewCounter(Opts{Name: "c", Help: "h"})
	mustPanic("type", func() { reg.NewGauge(Opts{Name: "c", Help: "h"}) })
	mustPanic("help", func() { reg.NewCounter(Opts{Name: "c", Help: "other"}) })
	mustPanic("wall", func() { reg.NewCounter(Opts{Name: "c", Help: "h", Wall: true}) })
	mustPanic("label", func() { reg.NewCounterVec(Opts{Name: "c", Help: "h", Label: "op"}) })
	reg.NewHistogram(HistogramOpts{Opts: Opts{Name: "h", Help: "x"}, Buckets: []float64{1, 2}})
	mustPanic("buckets", func() {
		reg.NewHistogram(HistogramOpts{Opts: Opts{Name: "h", Help: "x"}, Buckets: []float64{1, 3}})
	})
}

// Bucket bounds are exact powers of 4 — exactly representable floats whose
// shortest decimal form is platform-stable, the foundation of the golden
// byte-identity contract.
func TestBucketLayout(t *testing.T) {
	secs := SecondsBuckets()
	if len(secs) == 0 {
		t.Fatal("empty seconds buckets")
	}
	for i, b := range secs {
		want := math.Ldexp(1, 2*(i-15)) // 4^-15 .. 4^4
		if b != want {
			t.Fatalf("seconds bucket %d = %v, want %v", i, b, want)
		}
		// Shortest round-trip form must re-parse to the identical float.
		back, err := strconv.ParseFloat(strconv.FormatFloat(b, 'g', -1, 64), 64)
		if err != nil || back != b {
			t.Fatalf("bucket %v does not round-trip", b)
		}
	}
	cnt := CountBuckets()
	if cnt[0] != 1 {
		t.Fatalf("count buckets start at %v, want 1", cnt[0])
	}
	for i := 1; i < len(cnt); i++ {
		if cnt[i] != 4*cnt[i-1] {
			t.Fatalf("count buckets not powers of 4 at %d", i)
		}
	}
}

func TestHistogramObserve(t *testing.T) {
	reg := New()
	h := reg.NewHistogram(HistogramOpts{Opts: Opts{Name: "h", Help: "x"},
		Buckets: []float64{1, 10, 100}})
	for _, v := range []float64{0.5, 1, 5, 50, 500, math.NaN()} {
		h.Observe(v) // NaN must be dropped, bounds are inclusive (le)
	}
	if h.s.count != 5 {
		t.Fatalf("count = %d, want 5 (NaN dropped)", h.s.count)
	}
	var buf bytes.Buffer
	if err := reg.WriteTextOpts(&buf, ExpoOpts{}); err != nil {
		t.Fatal(err)
	}
	want := []string{
		`h_bucket{le="1"} 2`,   // 0.5 and the inclusive 1
		`h_bucket{le="10"} 3`,  // + 5
		`h_bucket{le="100"} 4`, // + 50
		`h_bucket{le="+Inf"} 5`,
		`h_count 5`,
	}
	for _, w := range want {
		if !strings.Contains(buf.String(), w) {
			t.Fatalf("exposition missing %q:\n%s", w, buf.String())
		}
	}
}

// The exposition must survive its own parser, and the lint must accept it.
func TestExpositionRoundTrip(t *testing.T) {
	reg := New()
	reg.NewCounterVec(Opts{Name: "a_ops_total", Help: "ops", Label: "op"}).With("search").Add(3)
	reg.NewCounterVec(Opts{Name: "a_ops_total", Help: "ops", Label: "op"}).With("insert").Add(1)
	reg.NewGauge(Opts{Name: "b_gauge", Help: `back\slash and "quote"`}).Set(-2.5)
	h := reg.NewHistogramVec(HistogramOpts{Opts: Opts{Name: "c_seconds", Help: "lat", Label: "op"}})
	h.With("knn").Observe(0.001)
	h.With("knn").Observe(2)

	var buf bytes.Buffer
	if err := reg.WriteTextOpts(&buf, ExpoOpts{}); err != nil {
		t.Fatal(err)
	}
	if err := LintText(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("lint rejects own exposition: %v\n%s", err, buf.String())
	}
	fams, err := ParseText(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(fams) != 3 {
		t.Fatalf("got %d families, want 3", len(fams))
	}
	if fams[0].Name != "a_ops_total" || fams[0].Type != "counter" {
		t.Fatalf("family 0 = %+v", fams[0])
	}
	// Series sort by label value: insert before search.
	if fams[0].Samples[0].Labels["op"] != "insert" || fams[0].Samples[0].Value != 1 {
		t.Fatalf("sample order/value wrong: %+v", fams[0].Samples)
	}
	if fams[1].Help != `back\slash and "quote"` {
		t.Fatalf("help escaping broke: %q", fams[1].Help)
	}
	// Histogram: le labels must re-parse to the registered bounds, and the
	// +Inf bucket must equal the count.
	var infVal, count float64
	buckets := 0
	for _, s := range fams[2].Samples {
		switch s.Name {
		case "c_seconds_bucket":
			if le := s.Labels["le"]; le == "+Inf" {
				infVal = s.Value
			} else {
				v, err := strconv.ParseFloat(le, 64)
				if err != nil {
					t.Fatalf("unparsable le %q", le)
				}
				if v != SecondsBuckets()[buckets] {
					t.Fatalf("bucket %d bound %v, want %v", buckets, v, SecondsBuckets()[buckets])
				}
				buckets++
			}
		case "c_seconds_count":
			count = s.Value
		}
	}
	if buckets != len(SecondsBuckets()) {
		t.Fatalf("got %d finite buckets, want %d", buckets, len(SecondsBuckets()))
	}
	if infVal != 2 || count != 2 {
		t.Fatalf("+Inf=%v count=%v, want 2/2", infVal, count)
	}
}

// Help text with a literal backslash immediately before an 'n' escapes to
// `\\n`, which must round-trip back to backslash+n — not to a newline, the
// failure mode of unescaping via sequential ReplaceAll.
func TestHelpEscapingRoundTrip(t *testing.T) {
	for _, help := range []string{
		"backslash-n: \\n literal",
		"newline:\nnext",
		"mixed \\\nboth \\n and newline",
		"trailing backslash \\",
	} {
		if got := unescapeHelp(escapeHelp(help)); got != help {
			t.Errorf("help round-trip: %q -> %q -> %q", help, escapeHelp(help), got)
		}
	}
}

func TestLabelEscapingRoundTrip(t *testing.T) {
	reg := New()
	weird := "a\\b\"c\nd"
	reg.NewCounterVec(Opts{Name: "w_total", Help: "h", Label: "k"}).With(weird).Add(1)
	var buf bytes.Buffer
	if err := reg.WriteTextOpts(&buf, ExpoOpts{}); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := fams[0].Samples[0].Labels["k"]; got != weird {
		t.Fatalf("label round-trip: %q != %q", got, weird)
	}
}

func TestModeledOnlyDropsWallFamilies(t *testing.T) {
	reg := New()
	reg.NewCounter(Opts{Name: "modeled_total", Help: "m"}).Add(1)
	reg.NewGauge(Opts{Name: "uptime_seconds", Help: "w", Wall: true}).Set(123.456)
	var all, modeled bytes.Buffer
	if err := reg.WriteTextOpts(&all, ExpoOpts{}); err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteTextOpts(&modeled, ExpoOpts{ModeledOnly: true}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(all.String(), "uptime_seconds") {
		t.Fatal("full exposition must include wall families")
	}
	if strings.Contains(modeled.String(), "uptime_seconds") {
		t.Fatal("modeled-only exposition must drop wall families")
	}
	if !strings.Contains(modeled.String(), "modeled_total") {
		t.Fatal("modeled-only exposition lost a modeled family")
	}
}

func TestLintRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"sample before TYPE": "x_total 1\n",
		"unsorted families": "# HELP b_total b\n# TYPE b_total counter\nb_total 1\n" +
			"# HELP a_total a\n# TYPE a_total counter\na_total 1\n",
		"negative counter": "# HELP a_total a\n# TYPE a_total counter\na_total -1\n",
		"non-cumulative buckets": "# HELP h h\n# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
		"missing +Inf": "# HELP h h\n# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"inf != count": "# HELP h h\n# TYPE h histogram\n" +
			"h_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 2\n",
		"empty": "",
	}
	for name, text := range cases {
		if err := LintText(strings.NewReader(text)); err == nil {
			t.Errorf("%s: lint accepted malformed input", name)
		}
	}
}
