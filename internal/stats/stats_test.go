package stats

import (
	"math"
	"strings"
	"testing"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if got := Percentile(xs, 50); got != 3 {
		t.Fatalf("p50 = %f", got)
	}
	if got := Percentile(xs, 0); got != 1 {
		t.Fatalf("p0 = %f", got)
	}
	if got := Percentile(xs, 100); got != 5 {
		t.Fatalf("p100 = %f", got)
	}
	if got := Percentile(xs, 99); got != 5 {
		t.Fatalf("p99 = %f", got)
	}
	// Input must not be mutated.
	if xs[0] != 5 {
		t.Fatal("input mutated")
	}
}

func TestPercentilePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Percentile(nil, 50)
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Fatalf("GeoMean = %f", got)
	}
	if GeoMean(nil) != 0 {
		t.Fatal("empty GeoMean")
	}
}

func TestGeoMeanPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	GeoMean([]float64{1, 0})
}

func TestHumanRate(t *testing.T) {
	cases := map[float64]string{
		5:     "5.00 Op/s",
		5e3:   "5.00 KOp/s",
		2.5e6: "2.50 MOp/s",
		1.2e9: "1.20 GOp/s",
	}
	for v, want := range cases {
		if got := HumanRate(v); got != want {
			t.Errorf("HumanRate(%g) = %q, want %q", v, got, want)
		}
	}
}

func TestHumanBytes(t *testing.T) {
	if HumanBytes(512) != "512.0 B" {
		t.Fatal(HumanBytes(512))
	}
	if HumanBytes(2048) != "2.00 KB" {
		t.Fatal(HumanBytes(2048))
	}
	if HumanBytes(3<<20) != "3.00 MB" {
		t.Fatal(HumanBytes(3 << 20))
	}
	if HumanBytes(5<<30) != "5.00 GB" {
		t.Fatal(HumanBytes(float64(5 << 30)))
	}
}

func TestTable(t *testing.T) {
	tb := NewTable("op", "throughput", "traffic")
	tb.AddRow("insert", 1.5, 100)
	tb.AddRow("knn", 12345678.0, "n/a")
	s := tb.String()
	if !strings.Contains(s, "op") || !strings.Contains(s, "insert") {
		t.Fatalf("table missing content:\n%s", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 4 { // header, rule, two rows
		t.Fatalf("table has %d lines:\n%s", len(lines), s)
	}
	// Scientific notation for large floats.
	if !strings.Contains(s, "e+07") {
		t.Fatalf("large float not in scientific notation:\n%s", s)
	}
}

func TestSparkline(t *testing.T) {
	if Sparkline(nil) != "" {
		t.Fatal("empty input")
	}
	s := Sparkline([]float64{0, 1, 2, 3})
	if len([]rune(s)) != 4 {
		t.Fatalf("length = %d", len([]rune(s)))
	}
	runes := []rune(s)
	if runes[0] != '▁' || runes[3] != '█' {
		t.Fatalf("extremes wrong: %q", s)
	}
	// Constant series: no panic, uniform bars.
	c := []rune(Sparkline([]float64{5, 5, 5}))
	if c[0] != c[1] || c[1] != c[2] {
		t.Fatalf("constant series uneven: %q", string(c))
	}
}
