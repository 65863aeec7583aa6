// Package workload generates the point distributions and query mixes the
// paper evaluates on, plus the skew statistics used to characterise them.
//
// The paper's real datasets are not redistributable here, so each is
// replaced by a synthetic generator tuned to the skew statistic the paper
// reports (Gini coefficient over the distribution of points into P = 2048
// spatial bins):
//
//   - Uniform        — the microbenchmark workload (Gini ~ 0);
//   - CosmosLike     — Gaussian-mixture clusters tuned to Gini ~ 0.287,
//     standing in for the COSMOS astronomy catalogue;
//   - OSMLike        — heavy-tailed clusters tuned to Gini ~ 0.967,
//     standing in for OpenStreetMap North America;
//   - Varden         — the random-walk extreme-skew distribution of
//     Gan & Tao, used by the paper's Fig. 9 skew-resistance study.
//
// Generators are deterministic given their seed.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"pimzdtree/internal/geom"
	"pimzdtree/internal/morton"
	"pimzdtree/internal/parallel"
)

// Uniform returns n points uniformly distributed over the full coordinate
// grid for the given dimensionality.
func Uniform(seed int64, n int, dims uint8) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	maxC := morton.MaxCoord(int(dims))
	pts := make([]geom.Point, n)
	for i := range pts {
		p := geom.Point{Dims: dims}
		for d := uint8(0); d < dims; d++ {
			p.Coords[d] = rng.Uint32() & maxC
		}
		pts[i] = p
	}
	return pts
}

// clusterSpec drives the Gaussian-mixture generators.
type clusterSpec struct {
	clusters   int
	sigmaFrac  float64 // cluster stddev as a fraction of the grid
	zipfS      float64 // cluster-size skew (0 = equal sizes)
	background float64 // fraction of points drawn uniformly
}

// CosmosLike returns n points with moderate spatial skew (Gini ~ 0.29 over
// 2048 bins), standing in for the COSMOS astronomy dataset.
func CosmosLike(seed int64, n int, dims uint8) []geom.Point {
	return clustered(seed, n, dims, clusterSpec{
		clusters:   512,
		sigmaFrac:  0.03,
		zipfS:      0.35,
		background: 0.55,
	})
}

// OSMLike returns n points with strong spatial skew (Gini ~ 0.97 over 2048
// bins), standing in for the OpenStreetMap North America dataset: most
// points concentrate in a small number of dense clusters ("cities").
func OSMLike(seed int64, n int, dims uint8) []geom.Point {
	return clustered(seed, n, dims, clusterSpec{
		clusters:   400,
		sigmaFrac:  0.0015,
		zipfS:      1.1,
		background: 0.005,
	})
}

// clustered draws points from a Gaussian mixture with Zipf-distributed
// cluster weights plus a uniform background.
func clustered(seed int64, n int, dims uint8, spec clusterSpec) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	maxC := morton.MaxCoord(int(dims))
	grid := float64(maxC)
	// Cluster centers and Zipf weights.
	centers := make([][geom.MaxDims]float64, spec.clusters)
	for i := range centers {
		for d := uint8(0); d < dims; d++ {
			centers[i][d] = rng.Float64() * grid
		}
	}
	weights := make([]float64, spec.clusters)
	var totalW float64
	for i := range weights {
		weights[i] = 1 / math.Pow(float64(i+1), spec.zipfS)
		totalW += weights[i]
	}
	cum := make([]float64, spec.clusters)
	run := 0.0
	for i, w := range weights {
		run += w / totalW
		cum[i] = run
	}
	sigma := spec.sigmaFrac * grid
	pts := make([]geom.Point, n)
	for i := range pts {
		p := geom.Point{Dims: dims}
		if rng.Float64() < spec.background {
			for d := uint8(0); d < dims; d++ {
				p.Coords[d] = rng.Uint32() & maxC
			}
		} else {
			c := sort.SearchFloat64s(cum, rng.Float64())
			if c >= spec.clusters {
				c = spec.clusters - 1
			}
			for d := uint8(0); d < dims; d++ {
				v := centers[c][d] + rng.NormFloat64()*sigma
				p.Coords[d] = clampCoord(v, maxC)
			}
		}
		pts[i] = p
	}
	return pts
}

// Varden returns n points from the Varden distribution (Gan & Tao, "On the
// Hardness and Approximation of Euclidean DBSCAN"): an extremely skewed
// point set generated by a random walk of tightly-spaced steps with
// occasional long jumps, producing long filament clusters with wildly
// varying density.
func Varden(seed int64, n int, dims uint8) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	maxC := morton.MaxCoord(int(dims))
	grid := float64(maxC)
	// Walk parameters: short steps keep points in a dense filament;
	// roughly every 1/restartProb steps the walk teleports.
	step := grid / 1e6 * 10
	const restartProb = 1.0 / 4096
	pos := make([]float64, dims)
	for d := range pos {
		pos[d] = rng.Float64() * grid
	}
	pts := make([]geom.Point, n)
	for i := range pts {
		if rng.Float64() < restartProb {
			for d := range pos {
				pos[d] = rng.Float64() * grid
			}
		}
		p := geom.Point{Dims: dims}
		for d := uint8(0); d < dims; d++ {
			pos[d] += (rng.Float64()*2 - 1) * step
			if pos[d] < 0 {
				pos[d] = -pos[d]
			}
			if pos[d] > grid {
				pos[d] = 2*grid - pos[d]
			}
			p.Coords[d] = clampCoord(pos[d], maxC)
		}
		pts[i] = p
	}
	return pts
}

func clampCoord(v float64, maxC uint32) uint32 {
	if v < 0 {
		return 0
	}
	if v > float64(maxC) {
		return maxC
	}
	return uint32(v)
}

// Mix interleaves a fraction frac of points from skewed into a base slice
// drawn from uniform, reproducing the paper's Fig. 9 Uniform+Varden query
// mixes. The result has the same length as base.
func Mix(seed int64, base, skewed []geom.Point, frac float64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	out := append([]geom.Point(nil), base...)
	if frac <= 0 || len(skewed) == 0 {
		return out
	}
	k := int(float64(len(out)) * frac)
	if k > len(out) {
		k = len(out)
	}
	for i := 0; i < k; i++ {
		out[rng.Intn(len(out))] = skewed[rng.Intn(len(skewed))]
	}
	return out
}

// Gini computes the Gini coefficient of the distribution of points into
// bins^dims equal spatial cells, the statistic the paper uses to quantify
// dataset skew (P = 2048 bins total for its reported numbers).
func Gini(pts []geom.Point, totalBins int) float64 {
	if len(pts) == 0 || totalBins <= 1 {
		return 0
	}
	dims := pts[0].Dims
	// bins per dimension so that side^dims ~ totalBins.
	side := int(math.Round(math.Pow(float64(totalBins), 1/float64(dims))))
	if side < 1 {
		side = 1
	}
	maxC := float64(morton.MaxCoord(int(dims))) + 1
	counts := make([]float64, intPow(side, int(dims)))
	for _, p := range pts {
		idx := 0
		for d := uint8(0); d < dims; d++ {
			b := int(float64(p.Coords[d]) / maxC * float64(side))
			if b >= side {
				b = side - 1
			}
			idx = idx*side + b
		}
		counts[idx]++
	}
	sort.Float64s(counts)
	n := float64(len(counts))
	var cum, giniSum float64
	var total float64
	for _, c := range counts {
		total += c
	}
	for i, c := range counts {
		cum += c
		giniSum += cum / total
		_ = i
	}
	// Gini = 1 - 2/n * sum_i L(i) + 1/n  where L is the Lorenz curve.
	return 1 - 2/n*giniSum + 1/n
}

func intPow(b, e int) int {
	r := 1
	for i := 0; i < e; i++ {
		r *= b
	}
	return r
}

// Dataset identifies one of the paper's evaluation datasets.
type Dataset int

const (
	// DatasetUniform is the uniformly random microbenchmark data.
	DatasetUniform Dataset = iota
	// DatasetCosmos is the COSMOS-like moderately skewed data.
	DatasetCosmos
	// DatasetOSM is the OSM-like strongly skewed data.
	DatasetOSM
	// DatasetVarden is the random-walk extreme-skew data.
	DatasetVarden
)

// ParseDataset maps a dataset name as String prints it to its Dataset.
func ParseDataset(name string) (Dataset, error) {
	for d := DatasetUniform; d <= DatasetVarden; d++ {
		if d.String() == name {
			return d, nil
		}
	}
	return 0, fmt.Errorf("unknown dataset %q (uniform, cosmos, osm, varden)", name)
}

// String names the dataset as in the paper's figures.
func (d Dataset) String() string {
	switch d {
	case DatasetUniform:
		return "uniform"
	case DatasetCosmos:
		return "cosmos"
	case DatasetOSM:
		return "osm"
	case DatasetVarden:
		return "varden"
	default:
		return fmt.Sprintf("Dataset(%d)", int(d))
	}
}

// Generate draws n points of the dataset.
func (d Dataset) Generate(seed int64, n int, dims uint8) []geom.Point {
	switch d {
	case DatasetUniform:
		return Uniform(seed, n, dims)
	case DatasetCosmos:
		return CosmosLike(seed, n, dims)
	case DatasetOSM:
		return OSMLike(seed, n, dims)
	case DatasetVarden:
		return Varden(seed, n, dims)
	default:
		panic("workload: unknown dataset")
	}
}

// QueryBoxes builds axis-aligned boxes centered at randomly chosen data
// points, sized so that each box covers expectedHits points in expectation.
// This reproduces the paper's BoxCount / BoxFetch range-size setup (ranges
// covering on average 1, 10 and 100 points). Because boxes follow the data
// distribution, the side length is calibrated empirically against a sample
// of the dataset — a uniform-density formula would overshoot by orders of
// magnitude on skewed data.
func QueryBoxes(seed int64, data []geom.Point, m int, expectedHits float64) []geom.Box {
	rng := rand.New(rand.NewSource(seed))
	if len(data) == 0 || m <= 0 {
		return nil
	}
	dims := data[0].Dims
	maxC := morton.MaxCoord(int(dims))
	grid := float64(maxC)
	half := calibrateHalf(rng, data, expectedHits, grid)
	boxes := make([]geom.Box, m)
	for i := range boxes {
		c := data[rng.Intn(len(data))]
		lo := geom.Point{Dims: dims}
		hi := geom.Point{Dims: dims}
		for d := uint8(0); d < dims; d++ {
			lo.Coords[d] = clampCoord(float64(c.Coords[d])-half, maxC)
			hi.Coords[d] = clampCoord(float64(c.Coords[d])+half, maxC)
		}
		boxes[i] = geom.Box{Lo: lo, Hi: hi}
	}
	return boxes
}

// calibrateHalf binary-searches the half-side length whose boxes (centered
// at data points) catch expectedHits points on average, estimated on
// samples of the dataset.
func calibrateHalf(rng *rand.Rand, data []geom.Point, expectedHits, grid float64) float64 {
	dims := data[0].Dims
	// Sample of the data used for counting, with scale correction.
	const maxSample = 20000
	sample := data
	scale := 1.0
	if len(data) > maxSample {
		sample = make([]geom.Point, maxSample)
		for i := range sample {
			sample[i] = data[rng.Intn(len(data))]
		}
		scale = float64(len(data)) / maxSample
	}
	const probes = 48
	centers := make([]geom.Point, probes)
	for i := range centers {
		centers[i] = data[rng.Intn(len(data))]
	}
	// A point falls in the box of half-side h around a center iff its
	// Chebyshev (L-inf) distance to the center is <= h, so the per-dim
	// coordinate scan collapses to one precomputed distance per
	// (center, sample) pair; every probe of the bisection below is then a
	// flat threshold count over those floats. Counts (and the center-order
	// float accumulation) are identical to the direct scan.
	dists := make([][]float64, probes)
	counts := make([]int, probes)
	parallel.For(probes, func(i int) {
		c := centers[i]
		d := make([]float64, len(sample))
		for j, p := range sample {
			m := 0.0
			for k := uint8(0); k < dims; k++ {
				if v := absF(float64(p.Coords[k]) - float64(c.Coords[k])); v > m {
					m = v
				}
			}
			d[j] = m
		}
		dists[i] = d
	})
	avgHits := func(half float64) float64 {
		parallel.For(probes, func(i int) {
			cnt := 0
			for _, m := range dists[i] {
				if m <= half {
					cnt++
				}
			}
			counts[i] = cnt
		})
		total := 0.0
		for _, cnt := range counts {
			total += float64(cnt) * scale
		}
		return total / probes
	}
	// Bracket and bisect on the monotone hits(half) curve.
	lo, hi := 0.5, grid/2
	for iter := 0; iter < 24; iter++ {
		mid := math.Sqrt(lo * hi) // geometric bisection: hits spans decades
		if avgHits(mid) < expectedHits {
			lo = mid
		} else {
			hi = mid
		}
		if hi/lo < 1.05 {
			break
		}
	}
	return math.Sqrt(lo * hi)
}

func absF(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// QueryPoints samples m query points near the data distribution: each is a
// stored point perturbed by a small offset, as in the paper's kNN and
// search batches (queries follow the data's skew).
func QueryPoints(seed int64, data []geom.Point, m int) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	if len(data) == 0 || m <= 0 {
		return nil
	}
	dims := data[0].Dims
	maxC := morton.MaxCoord(int(dims))
	out := make([]geom.Point, m)
	for i := range out {
		c := data[rng.Intn(len(data))]
		p := geom.Point{Dims: dims}
		for d := uint8(0); d < dims; d++ {
			jitter := float64(rng.Intn(2049) - 1024)
			p.Coords[d] = clampCoord(float64(c.Coords[d])+jitter, maxC)
		}
		out[i] = p
	}
	return out
}
