// Package geom provides the geometric primitives used throughout the
// PIM-zd-tree repository: multi-dimensional integer points, axis-aligned
// bounding boxes, and the distance metrics (l1, squared l2, l-infinity)
// that the index's kNN and range queries are defined over.
//
// Coordinates are unsigned 32-bit integers. The trees in this module index
// points of up to MaxDims dimensions. Integer coordinates follow the
// paper's setup, where points are quantized into the [0, 2^bits) grid
// before z-order encoding.
package geom

import "fmt"

// MaxDims is the maximum dimensionality of points stored in the trees.
// The paper's evaluation uses 2D and 3D workloads; 4 leaves headroom while
// keeping Point a compact value type.
const MaxDims = 4

// Point is a multi-dimensional point with unsigned integer coordinates.
// Only the first Dims entries of Coords are meaningful. Point is a value
// type: copying it copies the coordinates.
type Point struct {
	Coords [MaxDims]uint32
	Dims   uint8
}

// P2 returns a 2-dimensional point.
func P2(x, y uint32) Point {
	return Point{Coords: [MaxDims]uint32{x, y}, Dims: 2}
}

// P3 returns a 3-dimensional point.
func P3(x, y, z uint32) Point {
	return Point{Coords: [MaxDims]uint32{x, y, z}, Dims: 3}
}

// P4 returns a 4-dimensional point.
func P4(x, y, z, w uint32) Point {
	return Point{Coords: [MaxDims]uint32{x, y, z, w}, Dims: 4}
}

// Equal reports whether p and q have the same dimensionality and coordinates.
func (p Point) Equal(q Point) bool {
	if p.Dims != q.Dims {
		return false
	}
	for d := uint8(0); d < p.Dims; d++ {
		if p.Coords[d] != q.Coords[d] {
			return false
		}
	}
	return true
}

// String formats the point as (x, y, ...).
func (p Point) String() string {
	s := "("
	for d := uint8(0); d < p.Dims; d++ {
		if d > 0 {
			s += ", "
		}
		s += fmt.Sprint(p.Coords[d])
	}
	return s + ")"
}

// absDiff returns |a-b| for unsigned coordinates without overflow.
func absDiff(a, b uint32) uint64 {
	if a > b {
		return uint64(a - b)
	}
	return uint64(b - a)
}

// DistL1 returns the l1 (Manhattan) distance between p and q.
// It panics if the dimensionalities differ.
func DistL1(p, q Point) uint64 {
	checkDims(p, q)
	ps := p.Coords[:p.Dims]
	qs := q.Coords[:len(ps)]
	var sum uint64
	for d, pv := range ps {
		sum += absDiff(pv, qs[d])
	}
	return sum
}

// DistL2Sq returns the squared l2 (Euclidean) distance between p and q.
// Squared distances avoid floating point in comparisons; with 32-bit
// coordinates and MaxDims=4 the result fits in uint64 (4 * (2^32-1)^2 <
// 2^66 does NOT fit, so coordinates used with DistL2Sq should stay within
// 31 bits per dimension, which the morton encodings guarantee).
func DistL2Sq(p, q Point) uint64 {
	checkDims(p, q)
	ps := p.Coords[:p.Dims]
	qs := q.Coords[:len(ps)]
	var sum uint64
	for d, pv := range ps {
		diff := absDiff(pv, qs[d])
		sum += diff * diff
	}
	return sum
}

// DistLInf returns the l-infinity (Chebyshev) distance between p and q.
func DistLInf(p, q Point) uint64 {
	checkDims(p, q)
	ps := p.Coords[:p.Dims]
	qs := q.Coords[:len(ps)]
	var m uint64
	for d, pv := range ps {
		if diff := absDiff(pv, qs[d]); diff > m {
			m = diff
		}
	}
	return m
}

func checkDims(p, q Point) {
	if p.Dims != q.Dims {
		panic(fmt.Sprintf("geom: dimension mismatch %d vs %d", p.Dims, q.Dims))
	}
}

// Metric identifies a distance metric. The PIM-side coarse filter uses L1;
// the CPU-side fine filter uses L2 (paper §6, "Execution of Complex
// Distance Metrics on PIMs").
type Metric uint8

const (
	// L1 is the Manhattan metric.
	L1 Metric = iota
	// L2 is the Euclidean metric (compared via squared distances).
	L2
	// LInf is the Chebyshev metric.
	LInf
)

// String returns the metric's conventional name.
func (m Metric) String() string {
	switch m {
	case L1:
		return "l1"
	case L2:
		return "l2"
	case LInf:
		return "linf"
	default:
		return fmt.Sprintf("Metric(%d)", uint8(m))
	}
}

// Dist returns the distance between p and q under metric m. For L2 the
// squared distance is returned (monotone in the true distance, so all
// comparisons are unaffected).
func (m Metric) Dist(p, q Point) uint64 {
	switch m {
	case L1:
		return DistL1(p, q)
	case L2:
		return DistL2Sq(p, q)
	case LInf:
		return DistLInf(p, q)
	default:
		panic("geom: unknown metric")
	}
}
