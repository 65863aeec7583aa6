package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMakeAndAccessors(t *testing.T) {
	p := P3(1, 2, 3)
	if p.Dims != 3 {
		t.Fatalf("Dims = %d, want 3", p.Dims)
	}
	if p.Coords[0] != 1 || p.Coords[1] != 2 || p.Coords[2] != 3 {
		t.Fatalf("coords = %v", p.Coords)
	}
	if got := p.String(); got != "(1, 2, 3)" {
		t.Fatalf("String() = %q", got)
	}
}

func TestPointConstructors(t *testing.T) {
	if p := P2(7, 9); p.Dims != 2 || p.Coords[0] != 7 || p.Coords[1] != 9 {
		t.Fatalf("P2 wrong: %v", p)
	}
	if p := P3(1, 2, 3); p.Dims != 3 {
		t.Fatalf("P3 wrong: %v", p)
	}
	if p := P4(1, 2, 3, 4); p.Dims != 4 || p.Coords[3] != 4 {
		t.Fatalf("P4 wrong: %v", p)
	}
}

func TestEqual(t *testing.T) {
	if !P3(1, 2, 3).Equal(P3(1, 2, 3)) {
		t.Fatal("identical points not equal")
	}
	if P3(1, 2, 3).Equal(P3(1, 2, 4)) {
		t.Fatal("different points equal")
	}
	if P3(1, 2, 3).Equal(P2(1, 2)) {
		t.Fatal("different dims equal")
	}
}

func TestDistL1(t *testing.T) {
	p, q := P3(0, 0, 0), P3(1, 2, 3)
	if got := DistL1(p, q); got != 6 {
		t.Fatalf("DistL1 = %d, want 6", got)
	}
	// Symmetric.
	if DistL1(q, p) != DistL1(p, q) {
		t.Fatal("DistL1 not symmetric")
	}
}

func TestDistL2Sq(t *testing.T) {
	p, q := P2(0, 3), P2(4, 0)
	if got := DistL2Sq(p, q); got != 25 {
		t.Fatalf("DistL2Sq = %d, want 25", got)
	}
}

func TestDistLInf(t *testing.T) {
	if got := DistLInf(P3(0, 0, 0), P3(1, 7, 3)); got != 7 {
		t.Fatalf("DistLInf = %d, want 7", got)
	}
}

func TestDistDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dim mismatch")
		}
	}()
	DistL1(P2(0, 0), P3(0, 0, 0))
}

func TestMetricDist(t *testing.T) {
	p, q := P2(0, 0), P2(3, 4)
	if L1.Dist(p, q) != 7 {
		t.Fatal("L1.Dist wrong")
	}
	if L2.Dist(p, q) != 25 {
		t.Fatal("L2.Dist wrong")
	}
	if LInf.Dist(p, q) != 4 {
		t.Fatal("LInf.Dist wrong")
	}
}

func TestMetricString(t *testing.T) {
	cases := map[Metric]string{L1: "l1", L2: "l2", LInf: "linf"}
	for m, want := range cases {
		if got := m.String(); got != want {
			t.Errorf("%v.String() = %q, want %q", uint8(m), got, want)
		}
	}
	if Metric(42).String() != "Metric(42)" {
		t.Error("unknown metric string wrong")
	}
}

// Property: l-inf <= l2 (as real distance) <= l1, and for integer grids
// linf <= l1, linf^2 <= l2sq <= l1^2.
func TestMetricOrderingProperty(t *testing.T) {
	f := func(a0, a1, b0, b1 uint16) bool {
		p := P2(uint32(a0), uint32(a1))
		q := P2(uint32(b0), uint32(b1))
		l1 := DistL1(p, q)
		l2sq := DistL2Sq(p, q)
		linf := DistLInf(p, q)
		return linf <= l1 && linf*linf <= l2sq && l2sq <= l1*l1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: triangle inequality for the l1 metric.
func TestTriangleInequalityL1(t *testing.T) {
	f := func(a0, a1, b0, b1, c0, c1 uint16) bool {
		a := P2(uint32(a0), uint32(a1))
		b := P2(uint32(b0), uint32(b1))
		c := P2(uint32(c0), uint32(c1))
		return DistL1(a, c) <= DistL1(a, b)+DistL1(b, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property from §6 of the paper: ||x||2 / ||x||1 in [1/sqrt(D), 1], i.e.
// l1 <= sqrt(D) * l2, the anchoring bound the coarse filter relies on.
func TestL1AnchorsL2(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		p := P3(rng.Uint32()>>12, rng.Uint32()>>12, rng.Uint32()>>12)
		q := P3(rng.Uint32()>>12, rng.Uint32()>>12, rng.Uint32()>>12)
		l1 := float64(DistL1(p, q))
		l2 := math.Sqrt(float64(DistL2Sq(p, q)))
		if l2 > l1+1e-9 {
			t.Fatalf("l2 %f > l1 %f", l2, l1)
		}
		if l1 > l2*1.7320508075688772+1e-6 { // sqrt(3)
			t.Fatalf("l1 %f > sqrt(3)*l2 %f", l1, l2)
		}
	}
}

func TestBoxContains(t *testing.T) {
	b := NewBox(P2(2, 2), P2(10, 10))
	for _, tc := range []struct {
		p    Point
		want bool
	}{
		{P2(2, 2), true},
		{P2(10, 10), true},
		{P2(5, 7), true},
		{P2(1, 5), false},
		{P2(5, 11), false},
	} {
		if got := b.Contains(tc.p); got != tc.want {
			t.Errorf("Contains(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestNewBoxInvertedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for inverted box")
		}
	}()
	NewBox(P2(5, 5), P2(4, 6))
}

func TestBoxIntersects(t *testing.T) {
	a := NewBox(P2(0, 0), P2(5, 5))
	b := NewBox(P2(5, 5), P2(9, 9)) // touch at a corner: closed boxes intersect
	c := NewBox(P2(6, 6), P2(9, 9))
	if !a.Intersects(b) || !b.Intersects(a) {
		t.Fatal("corner-touching boxes should intersect")
	}
	if a.Intersects(c) || c.Intersects(a) {
		t.Fatal("disjoint boxes should not intersect")
	}
}

func TestBoxContainsBox(t *testing.T) {
	outer := NewBox(P2(0, 0), P2(10, 10))
	inner := NewBox(P2(2, 3), P2(4, 5))
	if !outer.ContainsBox(inner) {
		t.Fatal("outer should contain inner")
	}
	if inner.ContainsBox(outer) {
		t.Fatal("inner should not contain outer")
	}
	if !outer.ContainsBox(outer) {
		t.Fatal("box should contain itself")
	}
}

func TestBoxExtendUnionAround(t *testing.T) {
	b := NewBox(P2(5, 5), P2(6, 6)).Extend(P2(1, 9))
	if b.Lo != P2(1, 5) || b.Hi != P2(6, 9) {
		t.Fatalf("Extend wrong: %v", b)
	}
	u := b.Union(NewBox(P2(0, 0), P2(2, 2)))
	if u.Lo != P2(0, 0) || u.Hi != P2(6, 9) {
		t.Fatalf("Union wrong: %v", u)
	}
	a := BoxAround([]Point{P2(3, 1), P2(1, 3), P2(2, 2)})
	if a.Lo != P2(1, 1) || a.Hi != P2(3, 3) {
		t.Fatalf("BoxAround wrong: %v", a)
	}
}

func TestBoxAroundEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BoxAround(nil)
}

func TestBoxCenter(t *testing.T) {
	b := NewBox(P2(0, 10), P2(10, 20))
	if c := b.Center(); c != P2(5, 15) {
		t.Fatalf("Center = %v", c)
	}
}

func TestBoxMinDist(t *testing.T) {
	b := NewBox(P2(10, 10), P2(20, 20))
	if d := b.DistL1To(P2(15, 15)); d != 0 {
		t.Fatalf("inside point dist = %d", d)
	}
	if d := b.DistL1To(P2(5, 15)); d != 5 {
		t.Fatalf("left dist = %d, want 5", d)
	}
	if d := b.DistL2SqTo(P2(7, 6)); d != 9+16 {
		t.Fatalf("corner l2sq = %d, want 25", d)
	}
	if d := b.DistLInfTo(P2(7, 6)); d != 4 {
		t.Fatalf("corner linf = %d, want 4", d)
	}
}

func TestBoxMaxDist(t *testing.T) {
	b := NewBox(P2(0, 0), P2(10, 10))
	q := P2(0, 0)
	if d := b.MaxDistTo(q, L1); d != 20 {
		t.Fatalf("max l1 = %d, want 20", d)
	}
	if d := b.MaxDistTo(q, L2); d != 200 {
		t.Fatalf("max l2sq = %d, want 200", d)
	}
	if d := b.MaxDistTo(q, LInf); d != 10 {
		t.Fatalf("max linf = %d, want 10", d)
	}
}

func TestSpherePredicates(t *testing.T) {
	b := NewBox(P2(10, 10), P2(12, 12))
	center := P2(0, 0)
	// Min squared l2 distance is 200; max is 288.
	if b.IntersectsSphere(center, 199, L2) {
		t.Fatal("should not intersect r2=199")
	}
	if !b.IntersectsSphere(center, 200, L2) {
		t.Fatal("should intersect r2=200")
	}
	if b.InsideSphere(center, 287, L2) {
		t.Fatal("should not be inside r2=287")
	}
	if !b.InsideSphere(center, 288, L2) {
		t.Fatal("should be inside r2=288")
	}
}

// Property: MinDistTo <= dist(p, x) <= MaxDistTo for any x in the box.
func TestBoxDistBracketsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		lo := P2(rng.Uint32()%1000, rng.Uint32()%1000)
		hi := P2(lo.Coords[0]+rng.Uint32()%100, lo.Coords[1]+rng.Uint32()%100)
		b := NewBox(lo, hi)
		p := P2(rng.Uint32()%2000, rng.Uint32()%2000)
		// Random point inside the box.
		x := P2(lo.Coords[0]+rng.Uint32()%(hi.Coords[0]-lo.Coords[0]+1),
			lo.Coords[1]+rng.Uint32()%(hi.Coords[1]-lo.Coords[1]+1))
		for _, m := range []Metric{L1, L2, LInf} {
			d := m.Dist(p, x)
			if d < b.MinDistTo(p, m) {
				t.Fatalf("metric %v: dist %d < min %d", m, d, b.MinDistTo(p, m))
			}
			if d > b.MaxDistTo(p, m) {
				t.Fatalf("metric %v: dist %d > max %d", m, d, b.MaxDistTo(p, m))
			}
		}
	}
}

func TestBoxString(t *testing.T) {
	b := NewBox(P2(1, 2), P2(3, 4))
	if got := b.String(); got != "[(1, 2) .. (3, 4)]" {
		t.Fatalf("String = %q", got)
	}
}

func TestBoxDims(t *testing.T) {
	if NewBox(P3(0, 0, 0), P3(1, 1, 1)).Dims() != 3 {
		t.Fatal("Dims wrong")
	}
}
