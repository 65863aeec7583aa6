package morton

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"pimzdtree/internal/geom"
)

// Correctness hardening for the fast encoders: max-coordinate edge cases
// for every dimensionality the trees store, and a fuzz target pitting
// EncodePoint/DecodePoint against the bit-at-a-time oracles.

// edgeCoords returns the boundary coordinate values for dimensionality d:
// zero, one, the max encodable coordinate and its neighbours, the half-range
// point, and alternating bit patterns.
func edgeCoords(d int) []uint32 {
	max := MaxCoord(d)
	return []uint32{0, 1, 2, max, max - 1, max >> 1, (max >> 1) + 1,
		0xAAAAAAAA & max, 0x55555555 & max}
}

// checkPoint requires EncodePoint to agree with NaiveEncodePoint on p and
// DecodePoint to invert it.
func checkPoint(t *testing.T, p geom.Point) {
	t.Helper()
	key := EncodePoint(p)
	if oracle := NaiveEncodePoint(p); key != oracle {
		t.Fatalf("EncodePoint(%v) = %#x, oracle %#x", p, key, oracle)
	}
	if got := DecodePoint(key, p.Dims); !got.Equal(p) {
		t.Fatalf("round trip %v -> %#x -> %v", p, key, got)
	}
}

// TestEncodeSliceEdgesAllDims round-trips every combination of edge
// coordinates for dims 2..4 through EncodePoint/DecodePoint.
func TestEncodeSliceEdgesAllDims(t *testing.T) {
	for d := 2; d <= geom.MaxDims; d++ {
		edges := edgeCoords(d)
		idx := make([]int, d)
		for {
			p := geom.Point{Dims: uint8(d)}
			for i, j := range idx {
				p.Coords[i] = edges[j]
			}
			checkPoint(t, p)
			i := 0
			for ; i < d; i++ {
				idx[i]++
				if idx[i] < len(edges) {
					break
				}
				idx[i] = 0
			}
			if i == d {
				break
			}
		}
	}
}

// TestDecodeSliceMatchesOracle cross-checks DecodePoint against the
// bit-at-a-time decoder on random keys for every dimensionality.
func TestDecodeSliceMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for d := 2; d <= geom.MaxDims; d++ {
		want := make([]uint32, d)
		for trial := 0; trial < 2000; trial++ {
			key := rng.Uint64() & (uint64(1)<<KeyBits(d) - 1)
			got := DecodePoint(key, uint8(d))
			decodeGeneric(key, want)
			for i := range want {
				if got.Coords[i] != want[i] {
					t.Fatalf("d=%d key %#x: DecodePoint %v, oracle %v", d, key, got, want)
				}
			}
		}
	}
}

// FuzzEncodeSliceVsOracle feeds arbitrary byte strings interpreted as a
// dimensionality plus coordinates, and requires the fast encoder to agree
// with the bit-at-a-time oracle and to round-trip through DecodePoint.
func FuzzEncodeSliceVsOracle(f *testing.F) {
	f.Add([]byte{1, 1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0})
	f.Add([]byte{2, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0})
	f.Add([]byte{0, 0xaa, 0xaa, 0, 0, 0x55, 0x55, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		d := int(data[0])%(geom.MaxDims-1) + 2
		p := geom.Point{Dims: uint8(d)}
		for i := 0; i < d; i++ {
			if off := 1 + i*4; off+4 <= len(data) {
				p.Coords[i] = binary.LittleEndian.Uint32(data[off:off+4]) & MaxCoord(d)
			}
		}
		checkPoint(t, p)
	})
}
