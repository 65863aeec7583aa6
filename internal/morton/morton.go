// Package morton implements z-order (Morton) key computation, the splitting
// rule underlying zd-trees and PIM-zd-trees.
//
// Two implementations are provided:
//
//   - the fast gap-recursive ("magic number") encoding from §6 of the paper
//     ("Fast z-Order Computation"), which interleaves the bits of each
//     coordinate in O(log bits) shift/mask steps, specialised for the 2D,
//     3D and 4D points the trees store; and
//
//   - the naive one-bit-at-a-time interleaving used by prior academic work,
//     kept for the Table 3 ablation and as the test oracle.
//
// Key layout: for D dimensions, each coordinate contributes BitsPerDim(D)
// bits. Bits are interleaved most-significant first, with dimension 0
// occupying the topmost bit of each D-bit group, so that the top bit of the
// key is bit BitsPerDim(D)-1 of coordinate 0. Keys are right-aligned within
// the uint64: key bit (D*bits - 1) is the first (root-level) split bit of a
// zd-tree.
package morton

import (
	"fmt"

	"pimzdtree/internal/geom"
)

// BitsPerDim returns the number of bits of each coordinate that participate
// in a D-dimensional 64-bit Morton key. Coordinates must be < 1<<BitsPerDim(d).
func BitsPerDim(d int) uint {
	if d < 1 || d > 8 {
		panic(fmt.Sprintf("morton: unsupported dimensionality %d", d))
	}
	switch d {
	case 1:
		return 32 // cap at coordinate width
	case 2:
		return 31 // 62-bit keys; keeps squared l2 distances in range
	case 3:
		return 21
	default:
		return uint(64 / d)
	}
}

// KeyBits returns the total number of significant bits in a D-dimensional
// key: D * BitsPerDim(D).
func KeyBits(d int) uint {
	return uint(d) * BitsPerDim(d)
}

// MaxCoord returns the largest encodable coordinate for dimensionality d.
func MaxCoord(d int) uint32 {
	b := BitsPerDim(d)
	if b >= 32 {
		return ^uint32(0)
	}
	return (uint32(1) << b) - 1
}

// split1 spreads the low 31 bits of x so that there is one gap bit between
// consecutive input bits (2D interleaving).
func split1(x uint64) uint64 {
	x &= 0x7fffffff
	x = (x | x<<16) & 0x0000ffff0000ffff
	x = (x | x<<8) & 0x00ff00ff00ff00ff
	x = (x | x<<4) & 0x0f0f0f0f0f0f0f0f
	x = (x | x<<2) & 0x3333333333333333
	x = (x | x<<1) & 0x5555555555555555
	return x
}

// compact1 inverts split1.
func compact1(x uint64) uint64 {
	x &= 0x5555555555555555
	x = (x | x>>1) & 0x3333333333333333
	x = (x | x>>2) & 0x0f0f0f0f0f0f0f0f
	x = (x | x>>4) & 0x00ff00ff00ff00ff
	x = (x | x>>8) & 0x0000ffff0000ffff
	x = (x | x>>16) & 0x00000000ffffffff
	return x
}

// split2 spreads the low 21 bits of x with two gap bits between consecutive
// input bits (3D interleaving). This is the Split_By_Three routine from the
// paper's §6 listing.
func split2(x uint64) uint64 {
	x &= 0x1fffff
	x = (x | x<<32) & 0x001f00000000ffff
	x = (x | x<<16) & 0x001f0000ff0000ff
	x = (x | x<<8) & 0x100f00f00f00f00f
	x = (x | x<<4) & 0x10c30c30c30c30c3
	x = (x | x<<2) & 0x1249249249249249
	return x
}

// compact2 inverts split2.
func compact2(x uint64) uint64 {
	x &= 0x1249249249249249
	x = (x | x>>2) & 0x10c30c30c30c30c3
	x = (x | x>>4) & 0x100f00f00f00f00f
	x = (x | x>>8) & 0x001f0000ff0000ff
	x = (x | x>>16) & 0x001f00000000ffff
	x = (x | x>>32) & 0x00000000001fffff
	return x
}

// split3 spreads the low 16 bits of x with three gap bits between
// consecutive input bits (4D interleaving).
func split3(x uint64) uint64 {
	x &= 0xffff
	x = (x | x<<24) & 0x000000ff000000ff
	x = (x | x<<12) & 0x000f000f000f000f
	x = (x | x<<6) & 0x0303030303030303
	x = (x | x<<3) & 0x1111111111111111
	return x
}

// compact3 inverts split3.
func compact3(x uint64) uint64 {
	x &= 0x1111111111111111
	x = (x | x>>3) & 0x0303030303030303
	x = (x | x>>6) & 0x000f000f000f000f
	x = (x | x>>12) & 0x000000ff000000ff
	x = (x | x>>24) & 0x000000000000ffff
	return x
}

// Encode2 returns the 62-bit Morton key of (x, y), x most significant.
// Coordinates above 31 bits are truncated.
func Encode2(x, y uint32) uint64 {
	return split1(uint64(x))<<1 | split1(uint64(y))
}

// Decode2 inverts Encode2.
func Decode2(key uint64) (x, y uint32) {
	return uint32(compact1(key >> 1)), uint32(compact1(key))
}

// Encode3 returns the 63-bit Morton key of (x, y, z), x most significant.
// Coordinates above 21 bits are truncated. This matches the paper's
// Z_Order_Key_3d up to its (shifted) output alignment: we right-align the
// key so bit 62 is the root split bit.
func Encode3(x, y, z uint32) uint64 {
	return split2(uint64(x))<<2 | split2(uint64(y))<<1 | split2(uint64(z))
}

// Decode3 inverts Encode3.
func Decode3(key uint64) (x, y, z uint32) {
	return uint32(compact2(key >> 2)), uint32(compact2(key >> 1)), uint32(compact2(key))
}

// Encode4 returns the 64-bit Morton key of (x, y, z, w), x most significant.
// Coordinates above 16 bits are truncated.
func Encode4(x, y, z, w uint32) uint64 {
	return split3(uint64(x))<<3 | split3(uint64(y))<<2 | split3(uint64(z))<<1 | split3(uint64(w))
}

// Decode4 inverts Encode4.
func Decode4(key uint64) (x, y, z, w uint32) {
	return uint32(compact3(key >> 3)), uint32(compact3(key >> 2)),
		uint32(compact3(key >> 1)), uint32(compact3(key))
}

// decodeGeneric inverts NaiveEncodePoint bit by bit for any dims. It is
// the reference implementation the decoders are tested against and is on
// no production path.
func decodeGeneric(key uint64, out []uint32) {
	d := len(out)
	bits := BitsPerDim(d)
	for i := range out {
		out[i] = 0
	}
	shift := int(bits)*d - 1
	for b := int(bits) - 1; b >= 0; b-- {
		for i := 0; i < d; i++ {
			out[i] |= uint32(key>>uint(shift)&1) << uint(b)
			shift--
		}
	}
}

// EncodePoint returns the Morton key of a geom.Point using the fast path.
func EncodePoint(p geom.Point) uint64 {
	switch p.Dims {
	case 2:
		return Encode2(p.Coords[0], p.Coords[1])
	case 3:
		return Encode3(p.Coords[0], p.Coords[1], p.Coords[2])
	case 4:
		return Encode4(p.Coords[0], p.Coords[1], p.Coords[2], p.Coords[3])
	default:
		panic(fmt.Sprintf("morton: unsupported point dimensionality %d", p.Dims))
	}
}

// DecodePoint inverts EncodePoint for the given dimensionality.
func DecodePoint(key uint64, dims uint8) geom.Point {
	p := geom.Point{Dims: dims}
	switch dims {
	case 2:
		p.Coords[0], p.Coords[1] = Decode2(key)
	case 3:
		p.Coords[0], p.Coords[1], p.Coords[2] = Decode3(key)
	case 4:
		p.Coords[0], p.Coords[1], p.Coords[2], p.Coords[3] = Decode4(key)
	default:
		panic(fmt.Sprintf("morton: unsupported dimensionality %d", dims))
	}
	return p
}

// NaiveEncodePoint computes the same key as EncodePoint using direct
// bit-by-bit interleaving (complexity O(bits)), the method most prior
// academic implementations use. It is the oracle the fast encoders are
// tested against; the Table 3 "Fast z-order" ablation prices it through
// CostNaive.
func NaiveEncodePoint(p geom.Point) uint64 {
	d := int(p.Dims)
	bits := BitsPerDim(d)
	var key uint64
	for b := int(bits) - 1; b >= 0; b-- {
		for i := 0; i < d; i++ {
			key = key<<1 | uint64(p.Coords[i]>>uint(b))&1
		}
	}
	return key
}

// CostFast and CostNaive are the modeled per-key work (in abstract cycles)
// of the two encoders: the fast path is ~5 shift/mask rounds per dimension,
// the naive path one masked shift per bit per dimension. Used by the cost
// model to price CPU-side key computation in the Table 3 ablation.
func CostFast(dims uint8) int64  { return int64(dims) * 6 }
func CostNaive(dims uint8) int64 { return int64(dims) * int64(BitsPerDim(int(dims))) * 2 }
