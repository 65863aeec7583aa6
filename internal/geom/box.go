package geom

import "fmt"

// Box is a closed axis-aligned box [Lo, Hi] (both corners inclusive).
// Every tree node stores the box of the z-order prefix it represents;
// orthogonal range queries are specified as boxes.
type Box struct {
	Lo, Hi Point
}

// NewBox returns the box with the given inclusive corners. It panics if
// the corners' dimensionalities differ or any lo coordinate exceeds the
// corresponding hi coordinate.
func NewBox(lo, hi Point) Box {
	checkDims(lo, hi)
	for d := uint8(0); d < lo.Dims; d++ {
		if lo.Coords[d] > hi.Coords[d] {
			panic(fmt.Sprintf("geom: inverted box on dim %d: %d > %d", d, lo.Coords[d], hi.Coords[d]))
		}
	}
	return Box{Lo: lo, Hi: hi}
}

// BoxAround returns the box covering all points in pts. It panics on an
// empty slice.
func BoxAround(pts []Point) Box {
	if len(pts) == 0 {
		panic("geom: BoxAround of empty slice")
	}
	b := Box{Lo: pts[0], Hi: pts[0]}
	for _, p := range pts[1:] {
		b = b.Extend(p)
	}
	return b
}

// Dims returns the box's dimensionality.
func (b Box) Dims() uint8 { return b.Lo.Dims }

// Contains reports whether p lies inside b (inclusive).
func (b Box) Contains(p Point) bool {
	checkDims(b.Lo, p)
	ps := p.Coords[:p.Dims]
	los := b.Lo.Coords[:len(ps)]
	his := b.Hi.Coords[:len(ps)]
	for d, pv := range ps {
		if pv < los[d] || pv > his[d] {
			return false
		}
	}
	return true
}

// ContainsBox reports whether the whole of o lies inside b.
func (b Box) ContainsBox(o Box) bool {
	return b.Contains(o.Lo) && b.Contains(o.Hi)
}

// Intersects reports whether b and o share at least one point.
func (b Box) Intersects(o Box) bool {
	checkDims(b.Lo, o.Lo)
	blos := b.Lo.Coords[:b.Lo.Dims]
	bhis := b.Hi.Coords[:len(blos)]
	olos := o.Lo.Coords[:len(blos)]
	ohis := o.Hi.Coords[:len(blos)]
	for d := range blos {
		if bhis[d] < olos[d] || ohis[d] < blos[d] {
			return false
		}
	}
	return true
}

// Extend returns the smallest box containing both b and p.
func (b Box) Extend(p Point) Box {
	checkDims(b.Lo, p)
	for d := uint8(0); d < p.Dims; d++ {
		if p.Coords[d] < b.Lo.Coords[d] {
			b.Lo.Coords[d] = p.Coords[d]
		}
		if p.Coords[d] > b.Hi.Coords[d] {
			b.Hi.Coords[d] = p.Coords[d]
		}
	}
	return b
}

// Union returns the smallest box containing both b and o.
func (b Box) Union(o Box) Box {
	return b.Extend(o.Lo).Extend(o.Hi)
}

// Center returns the box's center point (rounded down).
func (b Box) Center() Point {
	c := Point{Dims: b.Lo.Dims}
	for d := uint8(0); d < b.Lo.Dims; d++ {
		lo, hi := uint64(b.Lo.Coords[d]), uint64(b.Hi.Coords[d])
		c.Coords[d] = uint32((lo + hi) / 2)
	}
	return c
}

// clampedDeltaVal returns the distance from v to the interval [lo, hi]
// (0 when v lies within it).
func clampedDeltaVal(v, lo, hi uint32) uint64 {
	switch {
	case v < lo:
		return uint64(lo - v)
	case v > hi:
		return uint64(v - hi)
	default:
		return 0
	}
}

// DistL1To returns the minimum l1 distance from p to any point of b
// (0 if p is inside b). Used for pruning kNN traversals.
func (b Box) DistL1To(p Point) uint64 {
	checkDims(b.Lo, p)
	ps := p.Coords[:p.Dims]
	los := b.Lo.Coords[:len(ps)]
	his := b.Hi.Coords[:len(ps)]
	var sum uint64
	for d, pv := range ps {
		sum += clampedDeltaVal(pv, los[d], his[d])
	}
	return sum
}

// DistL2SqTo returns the minimum squared l2 distance from p to any point
// of b (0 if p is inside b).
func (b Box) DistL2SqTo(p Point) uint64 {
	checkDims(b.Lo, p)
	ps := p.Coords[:p.Dims]
	los := b.Lo.Coords[:len(ps)]
	his := b.Hi.Coords[:len(ps)]
	var sum uint64
	for d, pv := range ps {
		delta := clampedDeltaVal(pv, los[d], his[d])
		sum += delta * delta
	}
	return sum
}

// DistLInfTo returns the minimum l-infinity distance from p to any point
// of b.
func (b Box) DistLInfTo(p Point) uint64 {
	checkDims(b.Lo, p)
	ps := p.Coords[:p.Dims]
	los := b.Lo.Coords[:len(ps)]
	his := b.Hi.Coords[:len(ps)]
	var m uint64
	for d, pv := range ps {
		if delta := clampedDeltaVal(pv, los[d], his[d]); delta > m {
			m = delta
		}
	}
	return m
}

// MinDistTo returns the minimum distance from p to b under metric m
// (squared for L2, consistent with Metric.Dist).
func (b Box) MinDistTo(p Point, m Metric) uint64 {
	switch m {
	case L1:
		return b.DistL1To(p)
	case L2:
		return b.DistL2SqTo(p)
	case LInf:
		return b.DistLInfTo(p)
	default:
		panic("geom: unknown metric")
	}
}

// maxDelta returns the per-dimension farthest distance from p to b.
func (b Box) maxDelta(p Point, d uint8) uint64 {
	lo := absDiff(p.Coords[d], b.Lo.Coords[d])
	hi := absDiff(p.Coords[d], b.Hi.Coords[d])
	if lo > hi {
		return lo
	}
	return hi
}

// MaxDistTo returns the maximum distance from p to any point of b under
// metric m (squared for L2). Used to test whether a node's box lies
// entirely within a candidate sphere.
func (b Box) MaxDistTo(p Point, m Metric) uint64 {
	checkDims(b.Lo, p)
	switch m {
	case L1:
		var sum uint64
		for d := uint8(0); d < p.Dims; d++ {
			sum += b.maxDelta(p, d)
		}
		return sum
	case L2:
		var sum uint64
		for d := uint8(0); d < p.Dims; d++ {
			delta := b.maxDelta(p, d)
			sum += delta * delta
		}
		return sum
	case LInf:
		var m2 uint64
		for d := uint8(0); d < p.Dims; d++ {
			if delta := b.maxDelta(p, d); delta > m2 {
				m2 = delta
			}
		}
		return m2
	default:
		panic("geom: unknown metric")
	}
}

// IntersectsSphere reports whether the metric ball of the given radius
// (squared radius for L2) around center touches b.
func (b Box) IntersectsSphere(center Point, radius uint64, m Metric) bool {
	return b.MinDistTo(center, m) <= radius
}

// InsideSphere reports whether every point of b lies within the metric
// ball of the given radius (squared for L2) around center.
func (b Box) InsideSphere(center Point, radius uint64, m Metric) bool {
	return b.MaxDistTo(center, m) <= radius
}

// String formats the box as [lo .. hi].
func (b Box) String() string {
	return fmt.Sprintf("[%v .. %v]", b.Lo, b.Hi)
}
