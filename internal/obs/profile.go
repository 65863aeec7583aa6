package obs

import (
	"cmp"
	"slices"
)

// Dist summarizes a per-module load distribution. Quantiles use the
// nearest-rank method over the active modules only (idle modules are not
// part of the round).
type Dist struct {
	P50  int64
	P99  int64
	Max  int64
	Mean float64
}

// LoadProfile is one sampled per-round snapshot of the module loads — the
// per-DPU skew attribution of the UPMEM benchmarking studies, recorded per
// round so imbalance can be tied to the exact phase that produced it.
type LoadProfile struct {
	Active    int  // modules that participated in the round
	Cycles    Dist // per-module compute cycles
	Bytes     Dist // per-module channel bytes (recv + send)
	Imbalance float64
}

// NewLoadProfile summarizes per-module cycle and byte loads. Imbalance is
// the paper's factor max/mean over cycle loads (1.0 = perfectly balanced;
// when no module did compute work, byte loads are used so pure-transfer
// rounds still report their skew). The input slices may be in any order;
// each is sorted in place.
func NewLoadProfile(cycles, bytes []int64) LoadProfile {
	p := LoadProfile{
		Active: len(cycles),
		Cycles: newDist(cycles),
		Bytes:  newDist(bytes),
	}
	switch {
	case p.Cycles.Mean > 0:
		p.Imbalance = float64(p.Cycles.Max) / p.Cycles.Mean
	case p.Bytes.Mean > 0:
		p.Imbalance = float64(p.Bytes.Max) / p.Bytes.Mean
	}
	return p
}

// newDist computes the summary of one load vector, sorting it in place.
func newDist(loads []int64) Dist {
	if len(loads) == 0 {
		return Dist{}
	}
	sorted := loads
	slices.Sort(sorted)
	var total int64
	for _, l := range sorted {
		total += l
	}
	return Dist{
		P50:  Quantile(sorted, 0.50),
		P99:  Quantile(sorted, 0.99),
		Max:  sorted[len(sorted)-1],
		Mean: float64(total) / float64(len(sorted)),
	}
}

// Quantile returns the nearest-rank q-quantile of an ascending-sorted
// vector (the zero value for an empty one): the one quantile rule of the
// load profiles here, the flight-recorder analysis and serve's
// slow-request analysis.
func Quantile[T cmp.Ordered](sorted []T, q float64) T {
	if len(sorted) == 0 {
		var zero T
		return zero
	}
	i := int(q*float64(len(sorted)) + 0.5)
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	if i < 0 {
		i = 0
	}
	return sorted[i]
}
