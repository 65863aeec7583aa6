// Command pimzd-inspect builds a PIM-zd-tree over a chosen workload and
// prints its structural anatomy: layer thresholds, L0 size and placement,
// chunk statistics, per-module space balance, lazy-counter health, and the
// PIM-Model cost of the build. Useful for understanding how the Table 2
// configurations shape the index. It exits 1 if Lemma 3.1 or a structural
// invariant fails on the built tree.
//
// Usage:
//
//	pimzd-inspect -dataset osm -n 500000 -tuning skew
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"pimzdtree/internal/core"
	"pimzdtree/internal/costmodel"
	"pimzdtree/internal/server"
	"pimzdtree/internal/stats"
	"pimzdtree/internal/workload"
)

func main() {
	var (
		dataset = flag.String("dataset", "uniform", "workload: uniform, cosmos, osm, varden")
		n       = flag.Int("n", 200_000, "number of points")
		modules = flag.Int("p", 2048, "number of PIM modules")
		tuning  = flag.String("tuning", "throughput", "tuning: throughput or skew")
		dims    = flag.Int("dims", 3, "dimensionality (2-4)")
		seed    = flag.Int64("seed", 42, "workload seed")
	)
	flag.Parse()
	if err := check(*dims, *modules, *n); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	ds, err := workload.ParseDataset(*dataset)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	tun, err := core.ParseTuning(*tuning)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	pts := ds.Generate(*seed, *n, uint8(*dims))

	machine := costmodel.UPMEMServer()
	machine.PIMModules = *modules
	cfg := core.Config{Dims: uint8(*dims), Machine: machine, Tuning: tun}

	tree := core.New(cfg, pts)
	st := tree.Stats()
	theta0, theta1, b := tree.Thresholds()

	fmt.Printf("PIM-zd-tree over %s (n=%d, dims=%d, P=%d, %v)\n\n",
		*dataset, *n, *dims, *modules, cfg.Tuning)

	tb := stats.NewTable("property", "value")
	tb.AddRow("points", st.Points)
	tb.AddRow("thetaL0", theta0)
	tb.AddRow("thetaL1", theta1)
	tb.AddRow("chunk factor B", b)
	tb.AddRow("L0 nodes", st.L0Nodes)
	tb.AddRow("L0 placement", placement(st.L0OnModules))
	tb.AddRow("L1 chunks", st.L1Chunks)
	tb.AddRow("L2 chunks", st.L2Chunks)
	tb.AddRow("stored bytes (total)", stats.HumanBytes(float64(st.StoredTotal)))
	tb.AddRow("stored bytes (max module)", stats.HumanBytes(float64(st.StoredMax)))
	avg := float64(st.StoredTotal) / float64(*modules)
	tb.AddRow("space balance (max/avg)", fmt.Sprintf("%.2f", float64(st.StoredMax)/avg))
	tb.AddRow("gini of data (2048 bins)", workload.Gini(pts, 2048))
	fmt.Print(tb)

	failed := false
	if bad := tree.CheckCounterInvariant(); bad != nil {
		fmt.Printf("\nFAIL: Lemma 3.1 violated: SC=%d Size=%d\n", bad.SC, bad.Size)
		failed = true
	} else {
		fmt.Println("\nlazy counters: Lemma 3.1 holds on every node (T/2 <= SC <= 2T)")
	}
	if err := tree.CheckInvariants(); err != nil {
		fmt.Printf("FAIL: structural invariant violated: %v\n", err)
		failed = true
	} else {
		fmt.Println("structure: all invariants hold")
	}

	m := tree.System().Metrics()
	fmt.Printf("\nbuild cost: %d rounds, %s over the channels, %.4fs modeled\n",
		m.Rounds, stats.HumanBytes(float64(m.ChannelBytes())), m.TotalSeconds())
	if failed {
		os.Exit(1)
	}
}

// check validates -dims and the size flags before anything is generated:
// outside 2-4 dims, or with -p below 1, the tree's configuration panics.
func check(dims, modules, n int) error {
	return errors.Join(server.CheckDims(dims), server.CheckSize("p", modules), server.CheckSize("n", n))
}

func placement(onModules bool) string {
	if onModules {
		return "replicated on all PIM modules"
	}
	return "CPU cache"
}
