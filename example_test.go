package pimzdtree_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"

	"pimzdtree"
)

// Example demonstrates the basic index lifecycle: build, query, update.
func Example() {
	idx := pimzdtree.New(pimzdtree.Options{Dims: 2},
		pimzdtree.P2(1, 1),
		pimzdtree.P2(4, 4),
		pimzdtree.P2(9, 9),
		pimzdtree.P2(2, 3),
	)

	nbrs := idx.KNN([]pimzdtree.Point{pimzdtree.P2(0, 0)}, 2)
	fmt.Println("nearest:", nbrs[0][0].Point, "then", nbrs[0][1].Point)

	counts := idx.BoxCount([]pimzdtree.Box{
		pimzdtree.NewBox(pimzdtree.P2(0, 0), pimzdtree.P2(5, 5)),
	})
	fmt.Println("in box:", counts[0])

	idx.Delete([]pimzdtree.Point{pimzdtree.P2(1, 1)})
	fmt.Println("size after delete:", idx.Size())

	// Output:
	// nearest: (1, 1) then (2, 3)
	// in box: 3
	// size after delete: 3
}

// ExampleIndex_KNNWithMetric shows kNN under a non-default metric. The
// PIM side filters with cheap l1 arithmetic (§6 of the paper) and the
// host applies the exact metric.
func ExampleIndex_KNNWithMetric() {
	idx := pimzdtree.New(pimzdtree.Options{Dims: 2},
		pimzdtree.P2(0, 5), // l1 distance 5, linf distance 5
		pimzdtree.P2(3, 3), // l1 distance 6, linf distance 3
	)
	q := []pimzdtree.Point{pimzdtree.P2(0, 0)}

	l1 := idx.KNNWithMetric(q, 1, pimzdtree.L1)
	linf := idx.KNNWithMetric(q, 1, pimzdtree.LInf)
	fmt.Println("l1 nearest:", l1[0][0].Point)
	fmt.Println("linf nearest:", linf[0][0].Point)

	// Output:
	// l1 nearest: (0, 5)
	// linf nearest: (3, 3)
}

// ExampleIndex_Metrics reads the PIM-Model cost counters after a batch.
func ExampleIndex_Metrics() {
	idx := pimzdtree.New(pimzdtree.Options{Dims: 2}, pimzdtree.P2(1, 2))
	idx.ResetMetrics()
	idx.KNN([]pimzdtree.Point{pimzdtree.P2(3, 4)}, 1)
	m := idx.Metrics()
	fmt.Println("rounds used:", m.Rounds >= 0, "modeled time positive:", m.TotalSeconds() >= 0)
	// Output:
	// rounds used: true modeled time positive: true
}

// gridPoints draws n seeded uniform 3D points on the 21-bit Morton grid.
func gridPoints(rng *rand.Rand, n int) []pimzdtree.Point {
	const gridMax = 1<<21 - 1
	pts := make([]pimzdtree.Point, n)
	for i := range pts {
		pts[i] = pimzdtree.P3(rng.Uint32()&gridMax, rng.Uint32()&gridMax, rng.Uint32()&gridMax)
	}
	return pts
}

// ExampleIndex_WriteTo saves an index and loads it back. The zd-tree is
// history-independent — its structure is a pure function of the stored
// point set — so serializing the points alone reproduces the identical
// index, which the example verifies by comparing query answers.
func ExampleIndex_WriteTo() {
	points := gridPoints(rand.New(rand.NewSource(404)), 5000)
	idx := pimzdtree.New(pimzdtree.Options{Dims: 3}, points...)

	var file bytes.Buffer
	n, err := idx.WriteTo(&file)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("saved %d points in %d bytes\n", idx.Size(), n)

	loaded, err := pimzdtree.ReadIndex(&file, pimzdtree.Options{})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("loaded", loaded.Size(), "points")

	queries := points[:100]
	same := reflect.DeepEqual(idx.KNN(queries, 5), loaded.KNN(queries, 5))
	fmt.Println("100 5-NN queries answered identically after reload:", same)

	// Output:
	// saved 5000 points in 60017 bytes
	// loaded 5000 points
	// 100 5-NN queries answered identically after reload: true
}

// Example_skew is the paper's Fig. 9 scenario in miniature: an adversarial
// batch whose every query falls in one 64-unit cube, against both Table 2
// tunings. Push-pull search pulls the hot meta-nodes to the CPU, so
// neither tuning collapses; they differ in what the pull costs.
func Example_skew() {
	rng := rand.New(rand.NewSource(31))
	data := gridPoints(rng, 50_000)
	balanced := gridPoints(rng, 5000)
	hot := data[123]
	adversarial := make([]pimzdtree.Point, 5000)
	for i := range adversarial {
		adversarial[i] = pimzdtree.P3(
			hot.Coords[0]+rng.Uint32()%64, hot.Coords[1]+rng.Uint32()%64, hot.Coords[2]+rng.Uint32()%64)
	}

	var answers [][][]pimzdtree.Neighbor
	for _, tuning := range []pimzdtree.Tuning{pimzdtree.ThroughputOptimized, pimzdtree.SkewResistant} {
		idx := pimzdtree.New(pimzdtree.Options{Dims: 3, Tuning: tuning}, data...)
		modeled := func(qs []pimzdtree.Point) float64 {
			before := idx.ModeledSeconds()
			answers = append(answers, idx.KNN(qs, 1))
			return idx.ModeledSeconds() - before
		}
		b, a := modeled(balanced), modeled(adversarial)
		fmt.Printf("%v: adversarial batch within 2x the balanced one's modeled time: %v\n", tuning, a < 2*b)
	}
	fmt.Println("both tunings return the same neighbors:",
		reflect.DeepEqual(answers[0], answers[2]) && reflect.DeepEqual(answers[1], answers[3]))

	// Output:
	// throughput-optimized: adversarial batch within 2x the balanced one's modeled time: true
	// skew-resistant: adversarial batch within 2x the balanced one's modeled time: true
	// both tunings return the same neighbors: true
}
