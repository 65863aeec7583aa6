package bench

import (
	"encoding/csv"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// claimParams is the one size every experiment runs at in this package's
// tests; testdata/shardscale.csv is its shardscale CSV. The batches and
// builds are large enough that a baseline forking into the LLC simulator
// breaks the GOMAXPROCS comparison (all 20 Pkd-tree/zd-tree rows of fig5a
// did when the baselines forked above 4096 elements).
var claimParams = Params{Seed: 42, WarmupN: 20000, BatchOps: 2000, Dims: 3, P: 256}

// output is what one Experiment.Run wrote.
type output struct {
	csv, text string
	err       error
}

// runs holds each experiment's outputs at GOMAXPROCS 1 and 4, by ID.
var runs = map[string][2]output{}

// modeledRun returns what experiment id wrote at GOMAXPROCS 1 and at 4.
// The experiment runs the first time a test asks for it, so the
// GOMAXPROCS comparison and every claim read the same two runs.
func modeledRun(id string) [2]output {
	if out, ok := runs[id]; ok {
		return out
	}
	i := slices.IndexFunc(Experiments, func(e Experiment) bool { return e.ID == id })
	if i < 0 {
		panic(fmt.Sprintf("no experiment %q", id))
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var out [2]output
	for j, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		var c, t strings.Builder
		err := Experiments[i].Run(claimParams, &c, &t)
		out[j] = output{c.String(), t.String(), err}
	}
	runs[id] = out
	return out
}

// run is an experiment's GOMAXPROCS-1 output as a claim reads it: the CSV
// by column name (and as written), and the rendered table.
type run struct {
	header    []string
	rows      [][]string
	csv, text string
}

// col is the index of column name. Naming a column the CSV lacks, like
// every lookup below that misses, panics; checkClaims reports the panic as
// the claim's failure.
func (r run) col(name string) int {
	if i := slices.Index(r.header, name); i >= 0 {
		return i
	}
	panic(fmt.Sprintf("no column %q in %v", name, r.header))
}

// num is row i's number in column name.
func (r run) num(i int, name string) float64 {
	v, err := strconv.ParseFloat(r.rows[i][r.col(name)], 64)
	if err != nil {
		panic(fmt.Sprintf("row %d, %s: %v", i, name, err))
	}
	return v
}

// at is column name's number in the first row whose cells match the
// column/value pairs.
func (r run) at(name string, pairs ...string) float64 {
rows:
	for i, row := range r.rows {
		for j := 0; j < len(pairs); j += 2 {
			if row[r.col(pairs[j])] != pairs[j+1] {
				continue rows
			}
		}
		return r.num(i, name)
	}
	panic(fmt.Sprintf("no row with %v", pairs))
}

// claim is one shape the paper (or, for an extension panel, DESIGN.md)
// reports, as a predicate over one experiment's run at claimParams.
type claim struct {
	id      string // <experiment>/<what it shows>
	section string // where the claim is made
	exp     string // the Experiments entry whose run it reads
	holds   func(r run) error
}

func (c claim) check() (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("%v", v)
		}
	}()
	out := modeledRun(c.exp)[0]
	if out.err != nil {
		return out.err
	}
	recs, err := csv.NewReader(strings.NewReader(out.csv)).ReadAll()
	if err != nil || len(recs) == 0 {
		return fmt.Errorf("unreadable CSV (%v):\n%s", err, out.csv)
	}
	return c.holds(run{header: recs[0], rows: recs[1:], csv: out.csv, text: out.text})
}

// checkClaims runs every claim on the given experiments, each as a
// subtest named by its ID. A failing claim reports its ID and section.
func checkClaims(t *testing.T, exps ...string) {
	t.Helper()
	n := 0
	for _, c := range claims {
		if !slices.Contains(exps, c.exp) {
			continue
		}
		n++
		t.Run(c.id, func(t *testing.T) {
			if err := c.check(); err != nil {
				t.Errorf("claim %s (%s) fails: %v", c.id, c.section, err)
			}
		})
	}
	if n == 0 {
		t.Fatalf("no claim on %v", exps)
	}
}

// table is the claim that a run is well formed: n rows under exactly this
// CSV header, every cell of the listed columns positive, and a rendered
// table that says marker.
func table(n int, header, marker string, positive ...string) func(run) error {
	return func(r run) error {
		if got := strings.Join(r.header, ","); got != header {
			return fmt.Errorf("header %q, want %q", got, header)
		}
		if len(r.rows) != n {
			return fmt.Errorf("%d rows, want %d", len(r.rows), n)
		}
		for i := range r.rows {
			for _, c := range positive {
				if v := r.num(i, c); !(v > 0) {
					return fmt.Errorf("row %d: %s = %g, want > 0", i, c, v)
				}
			}
		}
		if !strings.Contains(r.text, marker) {
			return fmt.Errorf("rendered table lacks %q:\n%s", marker, r.text)
		}
		return nil
	}
}

// fig5Claims are the claims each Fig. 5 panel makes: ten operations on
// three systems, and PIM-zd-tree beating both baselines on BC-10 (where
// the paper reports its largest speedups, 4.25x and 518x).
func fig5Claims(exp string) []claim {
	return []claim{
		{exp + "/table", "§7, Fig. 5", exp, table(3*len(OpNames),
			"op,system,throughput_elems_per_s,traffic_bytes_per_elem", "geomean speedup", "throughput_elems_per_s")},
		{exp + "/boxcount-beats-baselines", "§7, Fig. 5", exp, func(r run) error {
			pim := r.at("throughput_elems_per_s", "system", "PIM-zd-tree", "op", "BC-10")
			for _, base := range []string{"Pkd-tree", "zd-tree"} {
				if b := r.at("throughput_elems_per_s", "system", base, "op", "BC-10"); pim <= b {
					return fmt.Errorf("PIM-zd-tree BC-10 %.3g elems/s, not above %s's %.3g", pim, base, b)
				}
			}
			return nil
		}},
	}
}

// claims is every claim this reproduction checks. Each runs in the test
// of its experiment, at the end of this file.
var claims = slices.Concat([]claim{
	{"datasets/three-datasets", "§7.1, datasets", "datasets", func(r run) error {
		for _, name := range []string{"uniform", "cosmos", "osm"} {
			if !strings.Contains(r.text, name) {
				return fmt.Errorf("no %s row:\n%s", name, r.text)
			}
		}
		return nil
	}},
	// The CSV writes PIM-zd-tree's rows first, numbers in %g form.
	{"fig5a/csv-format", "§7, Fig. 5", "fig5a", func(r run) error {
		if r.rows[0][0] != "Insert" || r.rows[0][1] != "PIM-zd-tree" {
			return fmt.Errorf("first row %v, want PIM-zd-tree's Insert", r.rows[0])
		}
		for i := range r.rows {
			for _, c := range []string{"throughput_elems_per_s", "traffic_bytes_per_elem"} {
				if cell := r.rows[i][r.col(c)]; f(r.num(i, c)) != cell {
					return fmt.Errorf("row %d: %s written %q, not in %%g form", i, c, cell)
				}
			}
		}
		return nil
	}},
}, fig5Claims("fig5a"), fig5Claims("fig5b"), fig5Claims("fig5c"), []claim{
	{"fig6/table", "§7, Fig. 6", "fig6", table(5, "op,cpu_frac,pim_frac,comm_frac,total_seconds", "Insert", "total_seconds")},
	{"fig6/fractions-sum-to-one", "§7, Fig. 6", "fig6", func(r run) error {
		for i := range r.rows {
			if sum := r.num(i, "cpu_frac") + r.num(i, "pim_frac") + r.num(i, "comm_frac"); sum < 0.99 || sum > 1.01 {
				return fmt.Errorf("%s: fractions sum to %f", r.rows[i][0], sum)
			}
		}
		return nil
	}},
	{"fig7/table", "§7, Fig. 7", "fig7", table(7, "batch_size,throughput_ops_per_s,traffic_bytes_per_op", "Fig. 7:")},
	// Larger batches amortize the fixed round costs.
	{"fig7/batch-amortizes", "§7, Fig. 7", "fig7", func(r run) error {
		first, last := r.num(0, "throughput_ops_per_s"), r.num(len(r.rows)-1, "throughput_ops_per_s")
		if last <= first {
			return fmt.Errorf("batch scaling inverted: %.3g -> %.3g ops/s", first, last)
		}
		return nil
	}},
	{"fig8/table", "§7, Fig. 8", "fig8", table(15, "base_size,system,throughput_elems_per_s,traffic_bytes_per_elem", "Fig. 8:")},
	// PIM-zd-tree's 1-NN throughput does not depend on n: the smallest
	// and the largest base size are within 2.5x.
	{"fig8/n-independent", "§7, Fig. 8", "fig8", func(r run) error {
		small := r.at("throughput_elems_per_s", "system", "PIM-zd-tree", "base_size", fmt.Sprint(claimParams.WarmupN/8))
		large := r.at("throughput_elems_per_s", "system", "PIM-zd-tree", "base_size", fmt.Sprint(claimParams.WarmupN))
		if ratio := small / large; ratio < 0.4 || ratio > 2.5 {
			return fmt.Errorf("PIM-zd-tree 1-NN throughput unstable across sizes: ratio %f", ratio)
		}
		return nil
	}},
	{"fig9/table", "§7, Fig. 9", "fig9", table(18, "tuning,varden_fraction,throughput_elems_per_s", "Fig. 9:")},
	// The skew-resistant tuning degrades less than the throughput-optimized
	// one at the highest skew.
	{"fig9/skew-resistant-degrades-less", "§7, Fig. 9", "fig9", func(r run) error {
		degrade := func(tuning string) float64 {
			return r.at("throughput_elems_per_s", "tuning", tuning, "varden_fraction", "0") /
				r.at("throughput_elems_per_s", "tuning", tuning, "varden_fraction", "0.02")
		}
		if to, sr := degrade("throughput-optimized"), degrade("skew-resistant"); sr > to {
			return fmt.Errorf("skew-resistant degraded more (%.2fx) than throughput-optimized (%.2fx)", sr, to)
		}
		return nil
	}},
	{"table2/table", "§7, Table 2", "table2", table(2, "tuning,theta_l0,theta_l1,b,search_rounds_per_batch,search_bytes_per_op,space_bytes",
		"Table 2:", "space_bytes")},
	// Throughput-optimized first, and it searches in O(1) rounds a batch.
	{"table2/constant-rounds", "§7, Table 2", "table2", func(r run) error {
		if r.rows[0][0] != "throughput-optimized" || r.rows[1][0] != "skew-resistant" {
			return fmt.Errorf("tuning order %s, %s", r.rows[0][0], r.rows[1][0])
		}
		if v := r.num(0, "search_rounds_per_batch"); v > 4 {
			return fmt.Errorf("throughput-optimized search rounds = %g", v)
		}
		return nil
	}},
	{"table3/table", "§7, Table 3", "table3", table(4, "technique,insert_slowdown,boxcount_slowdown,boxfetch_slowdown,knn_slowdown", "N.A.")},
	// A technique's not-applicable cells are empty in the CSV; every other
	// cell is a positive slowdown.
	{"table3/na-cells-empty", "§7, Table 3", "table3", func(r run) error {
		for i, row := range r.rows {
			for j, cell := range row[1:] {
				if cell == "" {
					continue
				}
				if v := r.num(i, r.header[j+1]); !(v > 0) {
					return fmt.Errorf("%s/%s slowdown %g", row[0], r.header[j+1], v)
				}
			}
		}
		if got := strings.Join(r.rows[0], ","); !strings.HasPrefix(got, "Lazy Counter,") || !strings.HasSuffix(got, ",,,") {
			return fmt.Errorf("Lazy Counter row %q: want its three not-applicable cells empty", got)
		}
		return nil
	}},
	// Removing the fast z-order slows inserts: every op recomputes keys on
	// the host.
	{"table3/fast-zorder-speeds-inserts", "§7, Table 3", "table3", func(r run) error {
		if v := r.at("insert_slowdown", "technique", "Fast z-order"); v < 1 {
			return fmt.Errorf("the fast z-order ablation sped up inserts: %f", v)
		}
		return nil
	}},
	{"latency/table", "§7.2, latency", "latency", table(3, "system,p50_seconds,p99_seconds", "1-NN batch latency", "p99_seconds")},
	{"latency/p99-above-p50", "§7.2, latency", "latency", func(r run) error {
		for i := range r.rows {
			if p50, p99 := r.num(i, "p50_seconds"), r.num(i, "p99_seconds"); p99 < p50 {
				return fmt.Errorf("%s: p99 %g < p50 %g", r.rows[i][0], p99, p50)
			}
		}
		return nil
	}},
	{"dims/table", "§7.3, dimensions", "dims", table(4, "op_group,speedup_2d_over_3d", "2D speedup over 3D", "speedup_2d_over_3d")},
	{"energy/table", "§7.1, energy (extension)", "energy", table(3*len(OpNames), "op,system,nanojoules_per_elem",
		"energy reduction", "nanojoules_per_elem")},
	// PIM is more energy-efficient on the traffic-bound BoxCount ops: the
	// architectural motivation.
	{"energy/boxcount-cheaper", "§7.1, energy (extension)", "energy", func(r run) error {
		pim := r.at("nanojoules_per_elem", "system", "PIM-zd-tree", "op", "BC-10")
		if base := r.at("nanojoules_per_elem", "system", "Pkd-tree", "op", "BC-10"); pim >= base {
			return fmt.Errorf("PIM-zd-tree BC-10 %g nJ/elem, not below Pkd-tree's %g", pim, base)
		}
		return nil
	}},
	{"strawman/table", "§3 (extension)", "strawman", table(8, "design,batch,throughput_ops_per_s,rounds,channel_bytes_per_op", "range-partitioned")},
	// §3's two failure modes: range partitioning collapses under the
	// adversarial batch and node hashing pays a round per level, while
	// PIM-zd-tree beats node hashing on uniform batches and range
	// partitioning on adversarial ones.
	{"strawman/both-failure-modes", "§3 (extension)", "strawman", func(r run) error {
		tp := func(design, batch string) float64 {
			return r.at("throughput_ops_per_s", "design", design, "batch", batch)
		}
		rp, rpAdv := tp("range-partitioned", "uniform"), tp("range-partitioned", "adversarial")
		nh := tp("node-hashed", "uniform")
		pim, pimAdv := tp("PIM-zd-tree (throughput)", "uniform"), tp("PIM-zd-tree (throughput)", "adversarial")
		switch {
		case rpAdv*3 > rp:
			return fmt.Errorf("range-partitioned did not collapse: %.3g -> %.3g", rp, rpAdv)
		case r.at("rounds", "design", "node-hashed", "batch", "uniform") < 8:
			return fmt.Errorf("node-hashed takes under 8 rounds")
		case pim <= nh:
			return fmt.Errorf("PIM-zd-tree %.3g ops/s not above node hashing's %.3g on uniform batches", pim, nh)
		case pimAdv <= rpAdv:
			return fmt.Errorf("PIM-zd-tree %.3g ops/s not above range partitioning's %.3g on adversarial batches", pimAdv, rpAdv)
		}
		return nil
	}},
	{"pscale/table", "§1 (extension)", "pscale", table(8, "modules,op,throughput_elems_per_s", "Module scaling")},
	// More modules never make kNN much slower: aggregate bandwidth grows.
	{"pscale/knn-keeps-up", "§1 (extension)", "pscale", func(r run) error {
		first := r.at("throughput_elems_per_s", "op", "10-NN")
		last := r.at("throughput_elems_per_s", "op", "10-NN", "modules", fmt.Sprint(claimParams.P))
		if last < first*0.8 {
			return fmt.Errorf("10-NN throughput fell with more modules: %.3g -> %.3g", first, last)
		}
		return nil
	}},
	{"future/table", "Q2 (extension)", "future", table(len(OpNames), "op,upmem_throughput,future_throughput",
		"Future-machine projection", "upmem_throughput", "future_throughput")},
	// The stronger machine improves the (channel- or PIM-bound) majority
	// of operations.
	{"future/majority-improves", "Q2 (extension)", "future", func(r run) error {
		improved := 0
		for i := range r.rows {
			if r.num(i, "future_throughput") > r.num(i, "upmem_throughput") {
				improved++
			}
		}
		if improved < len(r.rows)/2 {
			return fmt.Errorf("only %d/%d ops improved on the future machine", improved, len(r.rows))
		}
		return nil
	}},
	{"bounds/table", "Thms 5.3, 5.5", "bounds", table(5, "theta_l0,theta_l1,b,search_rounds,search_rounds_bound,"+
		"search_msgs_per_op,search_msgs_bound,knn_bytes_per_op,knn_bytes_bound,within_bounds", "Theory bounds check")},
	{"bounds/within-bounds", "Thms 5.3, 5.5", "bounds", func(r run) error {
		for i, row := range r.rows {
			if row[r.col("within_bounds")] != "true" {
				return fmt.Errorf("row %d violates a bound: %v", i, row)
			}
		}
		return nil
	}},
	{"build/table", "§8 (extension)", "build", table(3, "system,points,throughput_points_per_s", "Construction throughput",
		"points", "throughput_points_per_s")},
	// All three systems build far above the GPU reference point §8 cites.
	{"build/above-gpu-reference", "§8 (extension)", "build", func(r run) error {
		for i := range r.rows {
			if v := r.num(i, "throughput_points_per_s"); v < 1e6 {
				return fmt.Errorf("%s builds at only %.3g points/s", r.rows[i][0], v)
			}
		}
		return nil
	}},
	{"recon/table", "§2.2 (extension)", "recon", table(2, "strategy,ops_per_s,rounds_per_op,channel_bytes_per_op", "Maintenance strategies")},
	// Reconstruction-based maintenance costs far more time and traffic
	// than batch-dynamic updates.
	{"recon/reconstruction-costlier", "§2.2 (extension)", "recon", func(r run) error {
		if dyn, rec := r.num(0, "ops_per_s"), r.num(1, "ops_per_s"); rec*2 > dyn {
			return fmt.Errorf("reconstruction not clearly slower: %.3g vs %.3g ops/s", rec, dyn)
		}
		if dyn, rec := r.num(0, "channel_bytes_per_op"), r.num(1, "channel_bytes_per_op"); rec <= dyn {
			return fmt.Errorf("reconstruction moves %g B/op, not more than %g", rec, dyn)
		}
		return nil
	}},
	// Every step completes its requests without error, with monotone
	// quantiles.
	{"saturate/steps-complete", "DESIGN §11 (extension)", "saturate", func(r run) error {
		for i := range r.rows {
			if done, shed := r.num(i, "completed"), r.num(i, "shed"); done+shed != saturateRequests || r.num(i, "errors") != 0 {
				return fmt.Errorf("row %d: %g completed + %g shed of %d, %g errors", i, done, shed, saturateRequests, r.num(i, "errors"))
			}
			if p50, p99, p999 := r.num(i, "p50_seconds"), r.num(i, "p99_seconds"), r.num(i, "p999_seconds"); !(p50 > 0 && p50 <= p99 && p99 <= p999) {
				return fmt.Errorf("row %d: quantiles not monotone: %v", i, r.rows[i])
			}
		}
		return nil
	}},
	// Both modes sustain the gentle first step, the FIFO mode collapses
	// within the sweep, and the pipeline sustains more.
	{"saturate/pipeline-outlasts-fifo", "DESIGN §11 (extension)", "saturate", func(r run) error {
		steps, best := map[string]int{}, map[string]float64{}
		var lastFIFO []string
		for i, row := range r.rows {
			mode, sus := row[r.col("mode")], row[r.col("sustained")] == "1"
			if steps[mode] == 0 && !sus {
				return fmt.Errorf("%s does not sustain its first step: %v", mode, row)
			}
			steps[mode]++
			if mode == "fifo" {
				lastFIFO = row
			}
			if sus {
				best[mode] = max(best[mode], r.num(i, "achieved_rps"))
			}
		}
		if lastFIFO == nil || lastFIFO[r.col("sustained")] != "0" {
			return fmt.Errorf("the fifo mode never collapsed within the sweep: %v", lastFIFO)
		}
		if !(best["pipeline"] > best["fifo"]) {
			return fmt.Errorf("max sustained: pipeline %.0f r/s, fifo %.0f r/s", best["pipeline"], best["fifo"])
		}
		return nil
	}},
	// The CSV is testdata/shardscale.csv byte for byte — the output of
	// `pimzd-bench -experiment shardscale -format csv -seed 42 -warmup 20000
	// -batch 2000 -dims 3 -p 256` — so the S=1 row and the router's charges
	// cannot drift across a refactor of the shard index. A deliberate change
	// to the panel's numbers regenerates the file with that command.
	{"shardscale/golden", "DESIGN §12 (extension)", "shardscale", func(r run) error {
		want, err := os.ReadFile("testdata/shardscale.csv")
		if err != nil {
			return err
		}
		if r.csv != string(want) {
			return fmt.Errorf("CSV differs from testdata/shardscale.csv:\n%s", diffLines(string(want), r.csv, "want", "got"))
		}
		return nil
	}},
	// Eight shards outrun one, a routed search moves exactly 16 channel
	// bytes at any n, and a rebalance lowers a hot-spot's imbalance.
	{"shardscale/scales-out", "DESIGN §12 (extension)", "shardscale", func(r run) error {
		s1 := r.at("throughput_mops", "section", "scale_s", "s", "1")
		if s8 := r.at("throughput_mops", "section", "scale_s", "s", "8"); s1 <= 0 || s8 <= s1 {
			return fmt.Errorf("scale_s: S=8 modeled throughput %.3g Mq/s not above S=1 %.3g", s8, s1)
		}
		for _, n := range []int{claimParams.WarmupN, 10 * claimParams.WarmupN} {
			if b := r.at("comm_bytes_per_query", "section", "scale_n", "n", fmt.Sprint(n)); b != 16 {
				return fmt.Errorf("scale_n: %g channel bytes per routed search at n=%d, want exactly 16", b, n)
			}
		}
		if before, after := r.at("imbalance_before", "section", "storm"), r.at("imbalance_after", "section", "storm"); after >= before {
			return fmt.Errorf("storm: rebalance did not lower the imbalance: %g -> %g", before, after)
		}
		return nil
	}},
})

// The tests below check each experiment's claims on its shared run; they
// keep the names of the per-experiment tests that used to run their own.

func TestDatasetInfo(t *testing.T)                { checkClaims(t, "datasets") }
func TestFig5SmokeAndShape(t *testing.T)          { checkClaims(t, "fig5a", "fig5b", "fig5c") }
func TestFig6Smoke(t *testing.T)                  { checkClaims(t, "fig6") }
func TestFig7Smoke(t *testing.T)                  { checkClaims(t, "fig7") }
func TestFig8Smoke(t *testing.T)                  { checkClaims(t, "fig8") }
func TestFig9Smoke(t *testing.T)                  { checkClaims(t, "fig9") }
func TestTable2Smoke(t *testing.T)                { checkClaims(t, "table2") }
func TestTable3Smoke(t *testing.T)                { checkClaims(t, "table3") }
func TestLatencySmoke(t *testing.T)               { checkClaims(t, "latency") }
func TestDimsSmoke(t *testing.T)                  { checkClaims(t, "dims") }
func TestEnergySmoke(t *testing.T)                { checkClaims(t, "energy") }
func TestStrawmanSmoke(t *testing.T)              { checkClaims(t, "strawman") }
func TestPScaleSmoke(t *testing.T)                { checkClaims(t, "pscale") }
func TestFutureSmoke(t *testing.T)                { checkClaims(t, "future") }
func TestBoundsSmoke(t *testing.T)                { checkClaims(t, "bounds") }
func TestBuildSmoke(t *testing.T)                 { checkClaims(t, "build") }
func TestReconSmoke(t *testing.T)                 { checkClaims(t, "recon") }
func TestSaturateSweepDeterministic(t *testing.T) { checkClaims(t, "saturate") }
func TestShardScaleClaims(t *testing.T)           { checkClaims(t, "shardscale") }
