package morton

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"pimzdtree/internal/geom"
)

func TestBitsPerDim(t *testing.T) {
	cases := map[int]uint{1: 32, 2: 31, 3: 21, 4: 16, 5: 12, 6: 10, 7: 9, 8: 8}
	for d, want := range cases {
		if got := BitsPerDim(d); got != want {
			t.Errorf("BitsPerDim(%d) = %d, want %d", d, got, want)
		}
	}
}

func TestBitsPerDimPanics(t *testing.T) {
	for _, d := range []int{0, 9, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("BitsPerDim(%d) should panic", d)
				}
			}()
			BitsPerDim(d)
		}()
	}
}

func TestKeyBitsAndMaxCoord(t *testing.T) {
	if KeyBits(3) != 63 {
		t.Fatalf("KeyBits(3) = %d", KeyBits(3))
	}
	if KeyBits(2) != 62 {
		t.Fatalf("KeyBits(2) = %d", KeyBits(2))
	}
	if MaxCoord(3) != 1<<21-1 {
		t.Fatalf("MaxCoord(3) = %d", MaxCoord(3))
	}
	if MaxCoord(1) != ^uint32(0) {
		t.Fatalf("MaxCoord(1) = %d", MaxCoord(1))
	}
}

func TestEncode2KnownValues(t *testing.T) {
	// Interleave of x=0b10, y=0b01 -> bits x1 y1 x0 y0 = 1 0 0 1 = 9.
	if got := Encode2(2, 1); got != 9 {
		t.Fatalf("Encode2(2,1) = %d, want 9", got)
	}
	if got := Encode2(0, 0); got != 0 {
		t.Fatalf("Encode2(0,0) = %d", got)
	}
	// Fig. 1 z-order: cell (1,1) in a 2x2 grid has key 3.
	if got := Encode2(1, 1); got != 3 {
		t.Fatalf("Encode2(1,1) = %d, want 3", got)
	}
}

func TestEncode3KnownValues(t *testing.T) {
	// x=1,y=0,z=0 -> top bit of the 3-bit group: 0b100 = 4.
	if got := Encode3(1, 0, 0); got != 4 {
		t.Fatalf("Encode3(1,0,0) = %d, want 4", got)
	}
	if got := Encode3(1, 1, 1); got != 7 {
		t.Fatalf("Encode3(1,1,1) = %d, want 7", got)
	}
	if got := Encode3(0, 1, 0); got != 2 {
		t.Fatalf("Encode3(0,1,0) = %d, want 2", got)
	}
}

func TestRoundTrip2(t *testing.T) {
	f := func(x, y uint32) bool {
		x &= MaxCoord(2)
		y &= MaxCoord(2)
		gx, gy := Decode2(Encode2(x, y))
		return gx == x && gy == y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRoundTrip3(t *testing.T) {
	f := func(x, y, z uint32) bool {
		x &= MaxCoord(3)
		y &= MaxCoord(3)
		z &= MaxCoord(3)
		gx, gy, gz := Decode3(Encode3(x, y, z))
		return gx == x && gy == y && gz == z
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRoundTrip4(t *testing.T) {
	f := func(x, y, z, w uint32) bool {
		x &= MaxCoord(4)
		y &= MaxCoord(4)
		z &= MaxCoord(4)
		w &= MaxCoord(4)
		gx, gy, gz, gw := Decode4(Encode4(x, y, z, w))
		return gx == x && gy == y && gz == z && gw == w
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The fast encoders must agree with the naive oracle — this is the exact
// correctness claim behind the paper's "Fast z-Order Computation".
func TestFastMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for dims := uint8(2); dims <= 4; dims++ {
		for i := 0; i < 5000; i++ {
			p := geom.Point{Dims: dims}
			for d := uint8(0); d < dims; d++ {
				p.Coords[d] = rng.Uint32() & MaxCoord(int(dims))
			}
			if fast, naive := EncodePoint(p), NaiveEncodePoint(p); fast != naive {
				t.Fatalf("dims=%d p=%v fast=%x naive=%x", dims, p, fast, naive)
			}
		}
	}
}

func TestEncodeSliceFastDims(t *testing.T) {
	if EncodePoint(geom.P2(2, 1)) != Encode2(2, 1) {
		t.Fatal("EncodePoint 2D mismatch")
	}
	if EncodePoint(geom.P3(1, 2, 3)) != Encode3(1, 2, 3) {
		t.Fatal("EncodePoint 3D mismatch")
	}
	if EncodePoint(geom.P4(1, 2, 3, 4)) != Encode4(1, 2, 3, 4) {
		t.Fatal("EncodePoint 4D mismatch")
	}
	if got := DecodePoint(Encode3(5, 6, 7), 3); !got.Equal(geom.P3(5, 6, 7)) {
		t.Fatalf("DecodePoint 3D = %v", got)
	}
}

func TestEncodeSlicePanics(t *testing.T) {
	for _, d := range []uint8{0, 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("EncodePoint with %d dims should panic", d)
				}
			}()
			EncodePoint(geom.Point{Dims: d})
		}()
	}
}

// Z-order monotonicity: if p dominates q coordinate-wise, key(p) >= key(q).
func TestZOrderDominanceMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 3000; i++ {
		q := geom.P3(rng.Uint32()&MaxCoord(3), rng.Uint32()&MaxCoord(3), rng.Uint32()&MaxCoord(3))
		p := q
		for d := 0; d < 3; d++ {
			bump := rng.Uint32() % 16
			if p.Coords[d]+bump <= MaxCoord(3) {
				p.Coords[d] += bump
			}
		}
		if EncodePoint(p) < EncodePoint(q) {
			t.Fatalf("dominance violated: p=%v q=%v", p, q)
		}
	}
}

func TestHighestDiffBit(t *testing.T) {
	if got := HighestDiffBit(0b1000, 0b0000); got != 3 {
		t.Fatalf("got %d, want 3", got)
	}
	if got := HighestDiffBit(0b1010, 0b1000); got != 1 {
		t.Fatalf("got %d, want 1", got)
	}
}

func TestHighestDiffBitPanicsOnEqual(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	HighestDiffBit(5, 5)
}

func TestCommonPrefixLen(t *testing.T) {
	a := Encode3(0, 0, 0)
	if got := CommonPrefixLen(a, a, 3); got != 63 {
		t.Fatalf("equal keys: got %d, want 63", got)
	}
	// Keys differing in the top split bit share no prefix.
	hi := uint64(1) << 62
	if got := CommonPrefixLen(0, hi, 3); got != 0 {
		t.Fatalf("top-bit diff: got %d, want 0", got)
	}
	// Keys differing only in the lowest bit share 62 bits.
	if got := CommonPrefixLen(0, 1, 3); got != 62 {
		t.Fatalf("low-bit diff: got %d, want 62", got)
	}
}

func TestPrefixBoxFull(t *testing.T) {
	// Zero-length prefix covers the whole space.
	b := PrefixBox(0, 0, 3)
	if b.Lo != geom.P3(0, 0, 0) {
		t.Fatalf("lo = %v", b.Lo)
	}
	m := MaxCoord(3)
	if b.Hi != geom.P3(m, m, m) {
		t.Fatalf("hi = %v", b.Hi)
	}
}

func TestPrefixBoxHalves(t *testing.T) {
	// One-bit prefix splits on x (dim 0 owns the top bit).
	m := MaxCoord(3)
	left := PrefixBox(0, 1, 3)
	if left.Lo != geom.P3(0, 0, 0) || left.Hi != geom.P3(m>>1, m, m) {
		t.Fatalf("left = %v", left)
	}
	right := PrefixBox(uint64(1)<<62, 1, 3)
	if right.Lo != geom.P3(m>>1+1, 0, 0) || right.Hi != geom.P3(m, m, m) {
		t.Fatalf("right = %v", right)
	}
}

// Property: every point whose key extends the prefix lies inside PrefixBox.
func TestPrefixBoxContainsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 2000; i++ {
		p := geom.P3(rng.Uint32()&MaxCoord(3), rng.Uint32()&MaxCoord(3), rng.Uint32()&MaxCoord(3))
		key := EncodePoint(p)
		plen := uint(rng.Intn(64))
		box := PrefixBox(key, plen, 3)
		if !box.Contains(p) {
			t.Fatalf("p=%v key=%x plen=%d box=%v", p, key, plen, box)
		}
	}
}

// Property: PrefixBox is exactly the set of keys with that prefix — a point
// sharing the box must share the prefix (boxes and prefixes are in bijection
// for z-order). We verify the contrapositive on random outside points.
func TestPrefixBoxExactProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	for i := 0; i < 2000; i++ {
		p := geom.P3(rng.Uint32()&MaxCoord(3), rng.Uint32()&MaxCoord(3), rng.Uint32()&MaxCoord(3))
		key := EncodePoint(p)
		plen := uint(rng.Intn(63) + 1)
		box := PrefixBox(key, plen, 3)
		q := geom.P3(rng.Uint32()&MaxCoord(3), rng.Uint32()&MaxCoord(3), rng.Uint32()&MaxCoord(3))
		qkey := EncodePoint(q)
		total := KeyBits(3)
		samePrefix := (key^qkey)>>(total-plen) == 0
		if samePrefix != box.Contains(q) {
			t.Fatalf("prefix/box mismatch: samePrefix=%v contains=%v", samePrefix, box.Contains(q))
		}
	}
}

func TestBitAtAndSplitLevelBit(t *testing.T) {
	if BitAt(0b100, 2) != 1 || BitAt(0b100, 1) != 0 {
		t.Fatal("BitAt wrong")
	}
}

func TestDecodePointDims(t *testing.T) {
	p := geom.P2(100, 200)
	if got := DecodePoint(EncodePoint(p), 2); !got.Equal(p) {
		t.Fatalf("2D roundtrip: %v", got)
	}
	p4 := geom.P4(1, 2, 3, 4)
	if got := DecodePoint(EncodePoint(p4), 4); !got.Equal(p4) {
		t.Fatalf("4D roundtrip: %v", got)
	}
}

func TestCostModelsOrdered(t *testing.T) {
	for d := uint8(2); d <= 4; d++ {
		if CostFast(d) >= CostNaive(d) {
			t.Errorf("dims=%d: fast cost %d should be < naive cost %d", d, CostFast(d), CostNaive(d))
		}
	}
}

func BenchmarkEncode3Fast(b *testing.B) {
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += Encode3(uint32(i), uint32(i*7), uint32(i*13))
	}
	_ = sink
}

func BenchmarkEncode3Naive(b *testing.B) {
	p := geom.P3(123456, 654321, 111111)
	var sink uint64
	for i := 0; i < b.N; i++ {
		p.Coords[0] = uint32(i) & MaxCoord(3)
		sink += NaiveEncodePoint(p)
	}
	_ = sink
}

// TestFig1ZOrderCurve verifies the 4x4 z-order traversal of the paper's
// Fig. 1: sorting grid cells by Morton key must visit them in the
// recursive Z pattern (with dimension 0 owning the high bit of each pair).
func TestFig1ZOrderCurve(t *testing.T) {
	type cell struct{ x, y uint32 }
	var cells []cell
	for x := uint32(0); x < 4; x++ {
		for y := uint32(0); y < 4; y++ {
			cells = append(cells, cell{x, y})
		}
	}
	sort.Slice(cells, func(i, j int) bool {
		return Encode2(cells[i].x, cells[i].y) < Encode2(cells[j].x, cells[j].y)
	})
	want := []cell{
		{0, 0}, {0, 1}, {1, 0}, {1, 1}, // first quadrant's Z
		{0, 2}, {0, 3}, {1, 2}, {1, 3}, // second quadrant
		{2, 0}, {2, 1}, {3, 0}, {3, 1},
		{2, 2}, {2, 3}, {3, 2}, {3, 3},
	}
	for i, w := range want {
		if cells[i] != w {
			t.Fatalf("position %d: got (%d,%d), want (%d,%d)",
				i, cells[i].x, cells[i].y, w.x, w.y)
		}
	}
}

// TestZOrderPreservesQuadrantLocality: all cells in one quadrant are
// contiguous in key order at every recursion level (the property that
// makes z-order prefixes spatial boxes).
func TestZOrderPreservesQuadrantLocality(t *testing.T) {
	const bits = 8
	const side = 1 << bits
	// For a random sample of prefix levels, check key ranges are boxes:
	// already covered by PrefixBox tests; here check the converse —
	// contiguous key ranges of size 4^l are exactly aligned sub-squares.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		level := uint(rng.Intn(bits) + 1) // quadtree level from the top
		sideLen := uint32(side >> level)
		qx := rng.Uint32() % (side / sideLen)
		qy := rng.Uint32() % (side / sideLen)
		lo := Encode2(qx*sideLen<<(31-bits)>>(31-bits), 0)
		_ = lo
		// All cells of the sub-square share the top 2*level bits (within
		// the bits-wide grid).
		baseKey := Encode2(qx*sideLen, qy*sideLen)
		shift := 2*bits - 2*level
		for probe := 0; probe < 16; probe++ {
			dx := rng.Uint32() % sideLen
			dy := rng.Uint32() % sideLen
			k := Encode2(qx*sideLen+dx, qy*sideLen+dy)
			if k>>shift != baseKey>>shift {
				t.Fatalf("cell (%d,%d) left its quadrant prefix", qx*sideLen+dx, qy*sideLen+dy)
			}
		}
	}
}
