package main

import (
	"math/rand"

	"pimzdtree/internal/geom"
	"pimzdtree/internal/morton"
	"pimzdtree/internal/workload"
)

const dims = 3

// dataSeed generates the stored points. What is stored is part of each
// workload's definition, like a benchmark's loaded table: on these skewed
// generators the seed decides where the few big clusters lie, and with it
// the modeled throughput by ±20%, which would drown any change in the
// index. The -seed flag draws everything that is traffic: which points are
// queried and how they are perturbed, the fresh points inserted, the
// operation mix and the arrival times.
const dataSeed = 1

// scaled shrinks a size by the -scale factor, never below lo.
func scaled(x int, scale float64, lo int) int {
	return max(lo, int(float64(x)*scale))
}

// perturb moves p by up to ±1024 per coordinate, the jitter
// workload.QueryPoints uses: near the data, almost always not stored.
func perturb(rng *rand.Rand, p geom.Point) geom.Point {
	maxC := int64(morton.MaxCoord(dims))
	for d := 0; d < dims; d++ {
		v := int64(p.Coords[d]) + int64(rng.Intn(2049)) - 1024
		p.Coords[d] = uint32(min(max(v, 0), maxC))
	}
	return p
}

// hotPool returns the stored points inside a cube around one of them, grown
// until it holds at least want points: the one cluster a quarter of every
// tree-read batch falls in, so that a few modules are overloaded and the
// push-pull pull path runs.
func hotPool(rng *rand.Rand, data []geom.Point, want int) []geom.Point {
	c := data[rng.Intn(len(data))]
	for half := uint32(1 << 8); ; half <<= 1 {
		var pool []geom.Point
		for _, p := range data {
			in := true
			for d := 0; d < dims; d++ {
				if diff := int64(p.Coords[d]) - int64(c.Coords[d]); diff > int64(half) || diff < -int64(half) {
					in = false
					break
				}
			}
			if in {
				pool = append(pool, p)
			}
		}
		if len(pool) >= want || half >= 1<<20 {
			return pool
		}
	}
}

// boxesAround centres a box of the given half-width on each point.
func boxesAround(centres []geom.Point, half uint32) []geom.Box {
	maxC := int64(morton.MaxCoord(dims))
	out := make([]geom.Box, len(centres))
	for i, c := range centres {
		lo, hi := c, c
		for d := 0; d < dims; d++ {
			lo.Coords[d] = uint32(max(int64(c.Coords[d])-int64(half), 0))
			hi.Coords[d] = uint32(min(int64(c.Coords[d])+int64(half), maxC))
		}
		out[i] = geom.Box{Lo: lo, Hi: hi}
	}
	return out
}

// calibratedHalf is the box half-width at which boxes centred on data points
// hold about hits points (workload.QueryBoxes calibrates it on a sample).
func calibratedHalf(seed int64, data []geom.Point, hits float64) uint32 {
	var half uint32
	for _, b := range workload.QueryBoxes(seed, data, 16, hits) {
		for d := 0; d < dims; d++ {
			half = max(half, (b.Hi.Coords[d]-b.Lo.Coords[d])/2) // a box clamped at the grid edge is narrower
		}
	}
	return half
}

// sampleOf draws m points of pool with repetition.
func sampleOf(rng *rand.Rand, pool []geom.Point, m int) []geom.Point {
	out := make([]geom.Point, m)
	for i := range out {
		out[i] = pool[rng.Intn(len(pool))]
	}
	return out
}

// perturbedOf draws m points of pool and perturbs each.
func perturbedOf(rng *rand.Rand, pool []geom.Point, m int) []geom.Point {
	out := sampleOf(rng, pool, m)
	for i := range out {
		out[i] = perturb(rng, out[i])
	}
	return out
}
