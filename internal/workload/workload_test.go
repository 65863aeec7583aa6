package workload

import (
	"testing"

	"pimzdtree/internal/geom"
	"pimzdtree/internal/morton"
)

func TestUniformDeterministicAndInRange(t *testing.T) {
	a := Uniform(1, 1000, 3)
	b := Uniform(1, 1000, 3)
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatal("not deterministic")
		}
		for d := uint8(0); d < 3; d++ {
			if a[i].Coords[d] > morton.MaxCoord(3) {
				t.Fatal("coordinate out of range")
			}
		}
	}
	c := Uniform(2, 1000, 3)
	same := 0
	for i := range a {
		if a[i].Equal(c[i]) {
			same++
		}
	}
	if same > 10 {
		t.Fatal("different seeds produced near-identical data")
	}
}

func TestUniformGiniNearZero(t *testing.T) {
	pts := Uniform(3, 200000, 3)
	g := Gini(pts, 2048)
	if g > 0.15 {
		t.Fatalf("uniform Gini = %f, want near 0", g)
	}
}

func TestCosmosLikeGini(t *testing.T) {
	pts := CosmosLike(4, 200000, 3)
	g := Gini(pts, 2048)
	// Paper reports 0.287 for COSMOS.
	if g < 0.15 || g > 0.45 {
		t.Fatalf("cosmos-like Gini = %f, want ~0.287", g)
	}
}

func TestOSMLikeGini(t *testing.T) {
	pts := OSMLike(5, 200000, 3)
	g := Gini(pts, 2048)
	// Paper reports 0.967 for OSM North America.
	if g < 0.9 {
		t.Fatalf("osm-like Gini = %f, want ~0.967", g)
	}
}

func TestSkewOrdering(t *testing.T) {
	n := 100000
	gu := Gini(Uniform(6, n, 3), 2048)
	gc := Gini(CosmosLike(6, n, 3), 2048)
	go_ := Gini(OSMLike(6, n, 3), 2048)
	gv := Gini(Varden(6, n, 3), 2048)
	if !(gu < gc && gc < go_) {
		t.Fatalf("skew ordering violated: uniform %f, cosmos %f, osm %f", gu, gc, go_)
	}
	if gv < 0.9 {
		t.Fatalf("varden Gini = %f, should be extreme", gv)
	}
}

func TestVardenInRange(t *testing.T) {
	for _, dims := range []uint8{2, 3} {
		pts := Varden(7, 5000, dims)
		maxC := morton.MaxCoord(int(dims))
		for _, p := range pts {
			for d := uint8(0); d < dims; d++ {
				if p.Coords[d] > maxC {
					t.Fatal("coordinate out of range")
				}
			}
		}
	}
}

func TestMix(t *testing.T) {
	base := Uniform(8, 10000, 3)
	sk := Varden(9, 10000, 3)
	mixed := Mix(10, base, sk, 0.10)
	if len(mixed) != len(base) {
		t.Fatal("length changed")
	}
	changed := 0
	for i := range mixed {
		if !mixed[i].Equal(base[i]) {
			changed++
		}
	}
	// ~10% replaced (allowing collisions in the replacement indexes).
	if changed < 700 || changed > 1100 {
		t.Fatalf("changed = %d, want ~1000", changed)
	}
	// frac 0 is a copy.
	same := Mix(10, base, sk, 0)
	for i := range same {
		if !same[i].Equal(base[i]) {
			t.Fatal("frac=0 should copy base")
		}
	}
}

func TestGiniEdgeCases(t *testing.T) {
	if Gini(nil, 2048) != 0 {
		t.Fatal("empty Gini")
	}
	if Gini(Uniform(1, 10, 3), 1) != 0 {
		t.Fatal("single-bin Gini")
	}
	// All mass in one cell: Gini -> 1 - 1/n_bins.
	pts := make([]geom.Point, 10000)
	for i := range pts {
		pts[i] = geom.P3(0, 0, 0)
	}
	if g := Gini(pts, 2048); g < 0.95 {
		t.Fatalf("point-mass Gini = %f", g)
	}
}

func TestDatasetEnum(t *testing.T) {
	if DatasetUniform.String() != "uniform" || DatasetCosmos.String() != "cosmos" || DatasetOSM.String() != "osm" {
		t.Fatal("dataset names")
	}
	for _, d := range []Dataset{DatasetUniform, DatasetCosmos, DatasetOSM} {
		pts := d.Generate(11, 100, 3)
		if len(pts) != 100 {
			t.Fatalf("%v generated %d points", d, len(pts))
		}
	}
}

func TestQueryBoxesExpectedHits(t *testing.T) {
	pts := Uniform(12, 200000, 3)
	boxes := QueryBoxes(13, pts, 200, 100)
	if len(boxes) != 200 {
		t.Fatal("box count")
	}
	// Count actual hits with a brute scan on a sample of boxes.
	var totalHits int
	for _, b := range boxes[:50] {
		for _, p := range pts {
			if b.Contains(p) {
				totalHits++
			}
		}
	}
	avg := float64(totalHits) / 50
	if avg < 30 || avg > 300 {
		t.Fatalf("average hits %f, expected ~100", avg)
	}
}

func TestQueryBoxesEmptyInputs(t *testing.T) {
	if QueryBoxes(1, nil, 10, 5) != nil {
		t.Fatal("nil data should give nil boxes")
	}
	if QueryBoxes(1, Uniform(1, 10, 2), 0, 5) != nil {
		t.Fatal("zero boxes")
	}
}

func TestQueryPointsFollowData(t *testing.T) {
	pts := OSMLike(14, 50000, 3)
	qs := QueryPoints(15, pts, 10000)
	if len(qs) != 10000 {
		t.Fatal("query count")
	}
	// Skewed data should produce skewed queries.
	if g := Gini(qs, 2048); g < 0.8 {
		t.Fatalf("query Gini = %f, should follow data skew", g)
	}
	if QueryPoints(1, nil, 5) != nil {
		t.Fatal("nil data")
	}
}

func TestTwoDimensionalGenerators(t *testing.T) {
	for _, d := range []Dataset{DatasetUniform, DatasetCosmos, DatasetOSM} {
		pts := d.Generate(16, 1000, 2)
		for _, p := range pts {
			if p.Dims != 2 {
				t.Fatalf("%v produced dims=%d", d, p.Dims)
			}
		}
	}
}

func TestQueryBoxesCalibratedOnSkewedData(t *testing.T) {
	pts := OSMLike(21, 100000, 3)
	boxes := QueryBoxes(22, pts, 60, 100)
	var totalHits float64
	for _, b := range boxes {
		cnt := 0
		for _, p := range pts {
			if b.Contains(p) {
				cnt++
			}
		}
		totalHits += float64(cnt)
	}
	avg := totalHits / float64(len(boxes))
	// Calibration must land within a small factor of the target even on
	// extreme skew (a uniform-density formula would be off by ~1000x).
	if avg < 20 || avg > 500 {
		t.Fatalf("average hits %f, want ~100", avg)
	}
}

func TestParseDataset(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Dataset
		ok   bool
	}{
		{"uniform", DatasetUniform, true},
		{"cosmos", DatasetCosmos, true},
		{"osm", DatasetOSM, true},
		{"varden", DatasetVarden, true},
		{"skw", 0, false},
		{"", 0, false},
		{"mars", 0, false},
	} {
		got, err := ParseDataset(tc.name)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseDataset(%q) = %v, %v; want %v, ok=%v", tc.name, got, err, tc.want, tc.ok)
		}
	}
	// Every dataset generates, and names round-trip through String.
	for d := DatasetUniform; d <= DatasetVarden; d++ {
		if got, err := ParseDataset(d.String()); err != nil || got != d {
			t.Errorf("ParseDataset(%v.String()) = %v, %v", d, got, err)
		}
		if pts := d.Generate(1, 10, 2); len(pts) != 10 {
			t.Errorf("%v.Generate returned %d points", d, len(pts))
		}
	}
}
