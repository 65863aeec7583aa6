package bench

import (
	"fmt"
	"io"

	"pimzdtree/internal/core"
	"pimzdtree/internal/costmodel"
	"pimzdtree/internal/geom"
	"pimzdtree/internal/naive"
	"pimzdtree/internal/stats"
	"pimzdtree/internal/workload"
)

// Fig5Row is one (system, operation) cell of Fig. 5.
type Fig5Row struct {
	System     string
	Op         string
	Throughput float64 // elements/s
	Traffic    float64 // bytes/element
}

// Fig5 reproduces Fig. 5 for one dataset: throughput and per-element
// memory traffic of the ten operations across the three systems.
func Fig5(ds workload.Dataset, p Params) []Fig5Row {
	p.fill()
	data := ds.Generate(p.Seed, p.WarmupN, p.Dims)
	batches := makeBatches(p, data)
	var rows []Fig5Row
	for _, r := range allRunners(p, data) {
		costs := runOps(r, batches, p.BatchOps)
		for _, op := range OpNames {
			c := costs[op]
			rows = append(rows, Fig5Row{
				System:     r.Name(),
				Op:         op,
				Throughput: c.Throughput(),
				Traffic:    c.TrafficPerElem(),
			})
		}
	}
	return rows
}

// RenderFig5 prints Fig. 5 rows with paper-style aggregates.
func RenderFig5(w io.Writer, ds workload.Dataset, rows []Fig5Row) {
	fmt.Fprintf(w, "Fig. 5 (%s): throughput and per-element memory traffic\n", ds)
	tb := stats.NewTable("op", "system", "throughput", "traffic B/elem")
	byOp := map[string]map[string]Fig5Row{}
	for _, r := range rows {
		if byOp[r.Op] == nil {
			byOp[r.Op] = map[string]Fig5Row{}
		}
		byOp[r.Op][r.System] = r
		tb.AddRow(r.Op, r.System, stats.HumanRate(r.Throughput), r.Traffic)
	}
	fmt.Fprint(w, tb)
	// Geometric-mean speedups of PIM-zd-tree over each baseline, grouped
	// as the paper reports them.
	groups := map[string][]string{
		"Insert":   {"Insert"},
		"BoxCount": {"BC-1", "BC-10", "BC-100"},
		"BoxFetch": {"BF-1", "BF-10", "BF-100"},
		"kNN":      {"1-NN", "10-NN", "100-NN"},
	}
	for _, base := range []string{"Pkd-tree", "zd-tree"} {
		fmt.Fprintf(w, "geomean speedup of PIM-zd-tree over %s:", base)
		for _, g := range []string{"Insert", "BoxCount", "BoxFetch", "kNN"} {
			var ratios []float64
			for _, op := range groups[g] {
				pimRow, ok1 := byOp[op]["PIM-zd-tree"]
				baseRow, ok2 := byOp[op][base]
				if ok1 && ok2 && baseRow.Throughput > 0 && pimRow.Throughput > 0 {
					ratios = append(ratios, pimRow.Throughput/baseRow.Throughput)
				}
			}
			fmt.Fprintf(w, "  %s %.2fx", g, stats.GeoMean(ratios))
		}
		fmt.Fprintln(w)
	}
	// Aggregate traffic reduction.
	for _, base := range []string{"Pkd-tree", "zd-tree"} {
		var ratios []float64
		for _, op := range OpNames {
			pimRow, ok1 := byOp[op]["PIM-zd-tree"]
			baseRow, ok2 := byOp[op][base]
			if ok1 && ok2 && pimRow.Traffic > 0 && baseRow.Traffic > 0 {
				ratios = append(ratios, baseRow.Traffic/pimRow.Traffic)
			}
		}
		fmt.Fprintf(w, "geomean traffic reduction vs %s: %.2fx\n", base, stats.GeoMean(ratios))
	}
}

// Fig6Row is one operation's runtime breakdown.
type Fig6Row struct {
	Op               string
	CPUFrac, PIMFrac float64
	CommFrac         float64
	TotalSeconds     float64
}

// Fig6 reproduces the Fig. 6 runtime breakdown on the uniform workload.
func Fig6(p Params) []Fig6Row {
	p.fill()
	data := workload.Uniform(p.Seed, p.WarmupN, p.Dims)
	r := newPIMRunner(p, core.ThroughputOptimized, data, nil)
	b := makeBatches(p, data)
	knn100 := b.knnQs
	if len(knn100) > p.BatchOps/40 {
		knn100 = knn100[:p.BatchOps/40]
	}
	phases := []struct {
		name string
		run  func()
	}{
		{"Insert", func() { r.tree.Insert(b.insert) }},
		{"Box Count 1", func() { r.tree.BoxCount(b.boxes1) }},
		{"Box Count 100", func() { r.tree.BoxCount(b.boxes1h) }},
		{"Box Fetch 100", func() { r.tree.BoxFetch(b.boxes1h) }},
		{"100-NN", func() { r.tree.KNN(knn100, 100) }},
	}
	var rows []Fig6Row
	for _, ph := range phases {
		before := r.tree.System().Metrics()
		ph.run()
		delta := r.tree.System().Metrics().Sub(before)
		total := delta.TotalSeconds()
		rows = append(rows, Fig6Row{
			Op:           ph.name,
			CPUFrac:      delta.CPUSeconds / total,
			PIMFrac:      delta.PIMSeconds / total,
			CommFrac:     delta.CommSeconds / total,
			TotalSeconds: total,
		})
	}
	return rows
}

// RenderFig6 prints the breakdown.
func RenderFig6(w io.Writer, rows []Fig6Row) {
	fmt.Fprintln(w, "Fig. 6: runtime breakdown (fractions of modeled time)")
	tb := stats.NewTable("op", "CPU", "PIM", "Comm", "total s")
	for _, r := range rows {
		tb.AddRow(r.Op, r.CPUFrac, r.PIMFrac, r.CommFrac, r.TotalSeconds)
	}
	fmt.Fprint(w, tb)
}

// Fig7Row is one batch-size point of Fig. 7.
type Fig7Row struct {
	BatchSize  int
	Throughput float64
	Traffic    float64
}

// Fig7 reproduces Fig. 7: INSERT performance across batch sizes. The
// paper sweeps 50k..2000k over a 300M warmup; this sweeps the same 40x
// range scaled to the configured warmup.
func Fig7(p Params) []Fig7Row {
	p.fill()
	data := workload.Uniform(p.Seed, p.WarmupN, p.Dims)
	sizes := []int{p.BatchOps / 8, p.BatchOps / 4, p.BatchOps / 2, p.BatchOps,
		p.BatchOps * 2, p.BatchOps * 5, p.BatchOps * 12}
	var rows []Fig7Row
	for _, size := range sizes {
		// Fig. 7 studies batch-size amortization of the real fixed round
		// costs, so it uses the unscaled machine.
		r := newRawPIMRunner(p, core.ThroughputOptimized, data)
		batch := workload.Uniform(p.Seed+int64(size), size, p.Dims)
		c := r.Insert(batch)
		rows = append(rows, Fig7Row{BatchSize: size, Throughput: c.Throughput(), Traffic: c.TrafficPerElem()})
	}
	return rows
}

// RenderFig7 prints the batch-size sweep.
func RenderFig7(w io.Writer, rows []Fig7Row) {
	fmt.Fprintln(w, "Fig. 7: INSERT throughput and per-op traffic vs batch size")
	tb := stats.NewTable("batch", "throughput", "traffic B/op")
	var tps, traffics []float64
	for _, r := range rows {
		tb.AddRow(r.BatchSize, stats.HumanRate(r.Throughput), r.Traffic)
		tps = append(tps, r.Throughput)
		traffics = append(traffics, r.Traffic)
	}
	fmt.Fprint(w, tb)
	fmt.Fprintf(w, "throughput %s   traffic %s\n", stats.Sparkline(tps), stats.Sparkline(traffics))
}

// Fig8Row is one dataset-size point of Fig. 8 for one system.
type Fig8Row struct {
	System     string
	BaseSize   int
	Throughput float64
	Traffic    float64
}

// Fig8 reproduces Fig. 8: 1-NN throughput and traffic across base dataset
// sizes (paper: 20M..300M; here the same 15x span scaled down).
func Fig8(p Params) []Fig8Row {
	p.fill()
	sizes := []int{p.WarmupN / 8, p.WarmupN / 4, p.WarmupN / 2, p.WarmupN * 3 / 4, p.WarmupN}
	var rows []Fig8Row
	for _, n := range sizes {
		pn := p
		pn.WarmupN = n
		data := workload.Uniform(p.Seed, n, p.Dims)
		qs := workload.QueryPoints(p.Seed+1, data, p.BatchOps/4)
		for _, r := range allRunners(pn, data) {
			c := r.KNN(qs, 1)
			rows = append(rows, Fig8Row{System: r.Name(), BaseSize: n,
				Throughput: c.Throughput(), Traffic: c.TrafficPerElem()})
		}
	}
	return rows
}

// RenderFig8 prints the dataset-size sweep.
func RenderFig8(w io.Writer, rows []Fig8Row) {
	fmt.Fprintln(w, "Fig. 8: 1-NN throughput and traffic vs base dataset size")
	tb := stats.NewTable("base size", "system", "throughput", "traffic B/elem")
	for _, r := range rows {
		tb.AddRow(r.BaseSize, r.System, stats.HumanRate(r.Throughput), r.Traffic)
	}
	fmt.Fprint(w, tb)
}

// Fig9Row is one Varden-proportion point for one tuning.
type Fig9Row struct {
	Tuning     string
	VardenFrac float64
	Throughput float64
}

// Fig9 reproduces Fig. 9: 1-NN throughput of the throughput-optimized and
// skew-resistant configurations under Uniform+Varden query mixes.
func Fig9(p Params) []Fig9Row {
	p.fill()
	data := workload.Uniform(p.Seed, p.WarmupN, p.Dims)
	varden := workload.Varden(p.Seed+7, p.WarmupN/4, p.Dims)
	fracs := []float64{0, 0.0001, 0.0002, 0.0005, 0.001, 0.002, 0.005, 0.01, 0.02}
	base := workload.QueryPoints(p.Seed+8, data, p.BatchOps/2)
	var rows []Fig9Row
	for _, tuning := range []core.Tuning{core.ThroughputOptimized, core.SkewResistant} {
		r := newPIMRunner(p, tuning, data, nil)
		for _, f := range fracs {
			qs := workload.Mix(p.Seed+9, base, varden, f)
			c := r.KNN(qs, 1)
			rows = append(rows, Fig9Row{Tuning: tuning.String(), VardenFrac: f, Throughput: c.Throughput()})
		}
	}
	return rows
}

// RenderFig9 prints the skew sweep.
func RenderFig9(w io.Writer, rows []Fig9Row) {
	fmt.Fprintln(w, "Fig. 9: 1-NN throughput vs proportion of Varden queries")
	tb := stats.NewTable("tuning", "varden %", "throughput")
	series := map[string][]float64{}
	var order []string
	for _, r := range rows {
		tb.AddRow(r.Tuning, r.VardenFrac*100, stats.HumanRate(r.Throughput))
		if _, ok := series[r.Tuning]; !ok {
			order = append(order, r.Tuning)
		}
		series[r.Tuning] = append(series[r.Tuning], r.Throughput)
	}
	fmt.Fprint(w, tb)
	for _, name := range order {
		fmt.Fprintf(w, "%-22s %s\n", name, stats.Sparkline(series[name]))
	}
}

// Table3Row is one ablation result.
type Table3Row struct {
	Technique string
	Slowdowns map[string]float64 // op group -> slowdown when removed (0 = N.A.)
}

// Table3 reproduces the Table 3 ablation: the slowdown observed when each
// implementation technique is individually removed.
func Table3(p Params) []Table3Row {
	p.fill()
	data := workload.Uniform(p.Seed, p.WarmupN, p.Dims)

	type ablation struct {
		name   string
		mutate func(*core.Config)
		ops    []string
	}
	ablations := []ablation{
		{"Lazy Counter", func(c *core.Config) { c.DisableLazyCounters = true }, []string{"Insert"}},
		{"Fast z-order", func(c *core.Config) { c.NaiveZOrder = true }, []string{"Insert", "BoxCount", "BoxFetch", "kNN"}},
		{"Fast l2-norm", func(c *core.Config) { c.DisableL1Anchor = true }, []string{"kNN"}},
		{"Direct API", func(c *core.Config) { c.DisableDirectAPI = true }, []string{"Insert", "BoxCount", "BoxFetch", "kNN"}},
	}

	measure := func(mutate func(*core.Config)) map[string]float64 {
		r := newPIMRunner(p, core.ThroughputOptimized, data, mutate)
		b := makeBatches(p, data)
		costs := runOps(r, b, p.BatchOps)
		secsPerElem := func(ops ...string) float64 {
			var vals []float64
			for _, op := range ops {
				c := costs[op]
				if c.Elements > 0 {
					vals = append(vals, c.Seconds/float64(c.Elements))
				}
			}
			return stats.GeoMean(vals)
		}
		return map[string]float64{
			"Insert":   secsPerElem("Insert"),
			"BoxCount": secsPerElem("BC-1", "BC-10", "BC-100"),
			"BoxFetch": secsPerElem("BF-1", "BF-10", "BF-100"),
			"kNN":      secsPerElem("1-NN", "10-NN", "100-NN"),
		}
	}

	baseline := measure(nil)
	var rows []Table3Row
	for _, a := range ablations {
		ablated := measure(a.mutate)
		slow := map[string]float64{}
		for _, op := range a.ops {
			if baseline[op] > 0 {
				slow[op] = ablated[op] / baseline[op]
			}
		}
		rows = append(rows, Table3Row{Technique: a.name, Slowdowns: slow})
	}
	return rows
}

// RenderTable3 prints the ablation table in the paper's layout.
func RenderTable3(w io.Writer, rows []Table3Row) {
	fmt.Fprintln(w, "Table 3: slowdown when each technique is removed (N.A. = not applicable)")
	tb := stats.NewTable("technique", "Insert", "BoxCount", "BoxFetch", "kNN")
	cell := func(m map[string]float64, op string) string {
		if v, ok := m[op]; ok {
			return fmt.Sprintf("%.2fx", v)
		}
		return "N.A."
	}
	for _, r := range rows {
		tb.AddRow(r.Technique,
			cell(r.Slowdowns, "Insert"), cell(r.Slowdowns, "BoxCount"),
			cell(r.Slowdowns, "BoxFetch"), cell(r.Slowdowns, "kNN"))
	}
	fmt.Fprint(w, tb)
}

// LatencyRow reports per-system 1-NN batch latency percentiles on the
// OSM-like dataset (§7.2 "Latency Results").
type LatencyRow struct {
	System   string
	P50, P99 float64 // seconds
}

// Latency reproduces the paper's P99 latency comparison.
func Latency(p Params) []LatencyRow {
	p.fill()
	data := workload.OSMLike(p.Seed, p.WarmupN, p.Dims)
	const batches = 40
	batchSize := p.BatchOps / 20
	if batchSize < 100 {
		batchSize = 100
	}
	var rows []LatencyRow
	for _, r := range allRunners(p, data) {
		var lats []float64
		for i := 0; i < batches; i++ {
			qs := workload.QueryPoints(p.Seed+int64(i)*13, data, batchSize)
			c := r.KNN(qs, 1)
			lats = append(lats, c.Seconds)
		}
		rows = append(rows, LatencyRow{
			System: r.Name(),
			P50:    stats.Percentile(lats, 50),
			P99:    stats.Percentile(lats, 99),
		})
	}
	return rows
}

// RenderLatency prints the latency rows.
func RenderLatency(w io.Writer, rows []LatencyRow) {
	fmt.Fprintln(w, "1-NN batch latency on the OSM-like dataset")
	tb := stats.NewTable("system", "P50 s", "P99 s")
	for _, r := range rows {
		tb.AddRow(r.System, r.P50, r.P99)
	}
	fmt.Fprint(w, tb)
}

// DimsRow reports the 2D/3D throughput ratio for one operation group
// (§7.3 "Sensitivity to Dimensions").
type DimsRow struct {
	Op      string
	Speedup float64 // 2D throughput / 3D throughput
}

// Dims reproduces the dimensionality sensitivity study.
func Dims(p Params) []DimsRow {
	p.fill()
	run := func(dims uint8) map[string]OpCost {
		pd := p
		pd.Dims = dims
		data := workload.Uniform(p.Seed, p.WarmupN, dims)
		r := newPIMRunner(pd, core.ThroughputOptimized, data, nil)
		return runOps(r, makeBatches(pd, data), p.BatchOps)
	}
	c2 := run(2)
	c3 := run(3)
	groups := map[string][]string{
		"Insert":   {"Insert"},
		"BoxCount": {"BC-1", "BC-10", "BC-100"},
		"BoxFetch": {"BF-1", "BF-10", "BF-100"},
		"kNN":      {"1-NN", "10-NN", "100-NN"},
	}
	var rows []DimsRow
	for _, g := range []string{"Insert", "BoxCount", "BoxFetch", "kNN"} {
		var ratios []float64
		for _, op := range groups[g] {
			t2, t3 := c2[op].Throughput(), c3[op].Throughput()
			if t2 > 0 && t3 > 0 {
				ratios = append(ratios, t2/t3)
			}
		}
		rows = append(rows, DimsRow{Op: g, Speedup: stats.GeoMean(ratios)})
	}
	return rows
}

// RenderDims prints the dimensionality rows.
func RenderDims(w io.Writer, rows []DimsRow) {
	fmt.Fprintln(w, "Sensitivity to dimensions: 2D speedup over 3D")
	tb := stats.NewTable("op group", "2D/3D speedup")
	for _, r := range rows {
		tb.AddRow(r.Op, fmt.Sprintf("%.2fx", r.Speedup))
	}
	fmt.Fprint(w, tb)
}

// Table2Row verifies one configuration's measured costs against Table 2.
type Table2Row struct {
	Tuning        string
	ThetaL0       int64
	ThetaL1       int64
	B             int64
	SearchRounds  float64 // rounds per search batch
	SearchBytesOp float64 // channel bytes per search op
	SpaceBytes    int64
}

// Table2 measures the two implemented configurations.
func Table2(p Params) []Table2Row {
	p.fill()
	data := workload.Uniform(p.Seed, p.WarmupN, p.Dims)
	qs := workload.QueryPoints(p.Seed+3, data, p.BatchOps)
	var rows []Table2Row
	for _, tuning := range []core.Tuning{core.ThroughputOptimized, core.SkewResistant} {
		r := newPIMRunner(p, tuning, data, nil)
		theta0, theta1, b := r.tree.Thresholds()
		before := r.tree.System().Metrics()
		r.tree.Search(qs)
		delta := r.tree.System().Metrics().Sub(before)
		total, _ := r.tree.System().StoredBytesTotal()
		rows = append(rows, Table2Row{
			Tuning:        tuning.String(),
			ThetaL0:       theta0,
			ThetaL1:       theta1,
			B:             b,
			SearchRounds:  float64(delta.Rounds),
			SearchBytesOp: float64(delta.ChannelBytes()) / float64(len(qs)),
			SpaceBytes:    total,
		})
	}
	return rows
}

// RenderTable2 prints the configuration table.
func RenderTable2(w io.Writer, rows []Table2Row) {
	fmt.Fprintln(w, "Table 2: measured configuration costs (one search batch)")
	tb := stats.NewTable("tuning", "thetaL0", "thetaL1", "B", "rounds/batch", "bytes/op", "space")
	for _, r := range rows {
		tb.AddRow(r.Tuning, r.ThetaL0, r.ThetaL1, r.B, r.SearchRounds,
			r.SearchBytesOp, stats.HumanBytes(float64(r.SpaceBytes)))
	}
	fmt.Fprint(w, tb)
}

// DatasetInfo reports the skew statistics of the generated datasets, for
// comparison with the paper's reported Gini coefficients.
func DatasetInfo(w io.Writer, p Params) {
	p.fill()
	tb := stats.NewTable("dataset", "points", "gini (P=2048 bins)", "paper gini")
	paper := map[workload.Dataset]string{
		workload.DatasetUniform: "~0",
		workload.DatasetCosmos:  "0.287",
		workload.DatasetOSM:     "0.967",
	}
	for _, ds := range []workload.Dataset{workload.DatasetUniform, workload.DatasetCosmos, workload.DatasetOSM} {
		pts := ds.Generate(p.Seed, p.WarmupN, p.Dims)
		tb.AddRow(ds.String(), len(pts), workload.Gini(pts, 2048), paper[ds])
	}
	fmt.Fprint(w, tb)
}

var _ = geom.L2 // used indirectly by runners

// EnergyRow is one (system, op) energy measurement — an extension beyond
// the paper, which cites energy studies (§7.1) but reports only traffic.
type EnergyRow struct {
	System     string
	Op         string
	NanoJPerEl float64
}

// Energy estimates per-element energy for the ten operations across the
// three systems on the uniform workload, from the counted work and traffic
// (see costmodel's energy constants).
func Energy(p Params) []EnergyRow {
	p.fill()
	data := workload.Uniform(p.Seed, p.WarmupN, p.Dims)
	batches := makeBatches(p, data)
	var rows []EnergyRow
	for _, r := range allRunners(p, data) {
		costs := runOps(r, batches, p.BatchOps)
		for _, op := range OpNames {
			rows = append(rows, EnergyRow{
				System:     r.Name(),
				Op:         op,
				NanoJPerEl: costs[op].EnergyPerElem() * 1e9,
			})
		}
	}
	return rows
}

// RenderEnergy prints the energy comparison.
func RenderEnergy(w io.Writer, rows []EnergyRow) {
	fmt.Fprintln(w, "Energy (extension): modeled nJ per element, uniform workload")
	tb := stats.NewTable("op", "system", "nJ/elem")
	byOp := map[string]map[string]float64{}
	for _, r := range rows {
		tb.AddRow(r.Op, r.System, r.NanoJPerEl)
		if byOp[r.Op] == nil {
			byOp[r.Op] = map[string]float64{}
		}
		byOp[r.Op][r.System] = r.NanoJPerEl
	}
	fmt.Fprint(w, tb)
	var ratios []float64
	for _, op := range OpNames {
		if pimE, baseE := byOp[op]["PIM-zd-tree"], byOp[op]["Pkd-tree"]; pimE > 0 && baseE > 0 {
			ratios = append(ratios, baseE/pimE)
		}
	}
	fmt.Fprintf(w, "geomean energy reduction vs Pkd-tree: %.2fx\n", stats.GeoMean(ratios))
}

// StrawmanRow compares one placement design on one batch kind (§3's
// motivation, quantified). An extension beyond the paper's figures.
type StrawmanRow struct {
	Design     string
	Batch      string // "uniform" or "adversarial"
	Throughput float64
	Rounds     int64
	BytesPerOp float64
}

// Strawman measures batched SEARCH under the two straw-man placements of
// §3 (range-partitioned, node-hashed) against both PIM-zd-tree tunings,
// on a uniform batch and on an adversarial single-target batch.
func Strawman(p Params) []StrawmanRow {
	p.fill()
	data := workload.Uniform(p.Seed, p.WarmupN, p.Dims)
	uniformQ := workload.Uniform(p.Seed+31, p.BatchOps, p.Dims)
	hot := data[7]
	adversarial := make([]geom.Point, p.BatchOps)
	for i := range adversarial {
		adversarial[i] = hot
	}

	machine := scaledPIMMachine(p, false)
	type design struct {
		name   string
		search func([]geom.Point) (rounds, chanBytes int64, secs float64)
	}
	pimSearch := func(tuning core.Tuning) func([]geom.Point) (int64, int64, float64) {
		tr := core.New(core.Config{Dims: p.Dims, Machine: machine, Tuning: tuning}, data)
		return func(qs []geom.Point) (int64, int64, float64) {
			tr.System().ResetMetrics()
			tr.Search(qs)
			m := tr.System().Metrics()
			return m.Rounds, m.ChannelBytes(), m.TotalSeconds()
		}
	}
	naiveSearch := func(placement naive.Placement) func([]geom.Point) (int64, int64, float64) {
		tr := naive.New(naive.Config{Dims: p.Dims, Machine: machine, Placement: placement}, data)
		return func(qs []geom.Point) (int64, int64, float64) {
			tr.System().ResetMetrics()
			tr.Search(qs)
			m := tr.System().Metrics()
			return m.Rounds, m.ChannelBytes(), m.TotalSeconds()
		}
	}
	designs := []design{
		{"PIM-zd-tree (throughput)", pimSearch(core.ThroughputOptimized)},
		{"PIM-zd-tree (skew-res)", pimSearch(core.SkewResistant)},
		{"range-partitioned", naiveSearch(naive.RangePartitioned)},
		{"node-hashed", naiveSearch(naive.NodeHashed)},
	}
	var rows []StrawmanRow
	for _, d := range designs {
		for _, batch := range []struct {
			name string
			qs   []geom.Point
		}{{"uniform", uniformQ}, {"adversarial", adversarial}} {
			rounds, bytes, secs := d.search(batch.qs)
			rows = append(rows, StrawmanRow{
				Design:     d.name,
				Batch:      batch.name,
				Throughput: costmodel.Throughput(len(batch.qs), secs),
				Rounds:     rounds,
				BytesPerOp: float64(bytes) / float64(len(batch.qs)),
			})
		}
	}
	return rows
}

// RenderStrawman prints the placement comparison.
func RenderStrawman(w io.Writer, rows []StrawmanRow) {
	fmt.Fprintln(w, "Strawman placements (extension; quantifies §3's motivation): batched SEARCH")
	tb := stats.NewTable("design", "batch", "throughput", "rounds", "chan B/op")
	for _, r := range rows {
		tb.AddRow(r.Design, r.Batch, stats.HumanRate(r.Throughput), r.Rounds, r.BytesPerOp)
	}
	fmt.Fprint(w, tb)
}

// StrawmanCSV emits the placement comparison.
func StrawmanCSV(w io.Writer, rows []StrawmanRow) error {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{r.Design, r.Batch, f(r.Throughput), fmt.Sprint(r.Rounds), f(r.BytesPerOp)}
	}
	return writeCSV(w, []string{"design", "batch", "throughput_ops_per_s", "rounds", "channel_bytes_per_op"}, out)
}

// Fig5Custom runs the ten-operation suite over a user-supplied dataset
// (loaded from a point file by cmd/pimzd-bench's -file flag).
func Fig5Custom(data []geom.Point, p Params) []Fig5Row {
	p.fill()
	p.Dims = data[0].Dims
	batches := makeBatches(p, data)
	var rows []Fig5Row
	for _, r := range allRunners(p, data) {
		costs := runOps(r, batches, p.BatchOps)
		for _, op := range OpNames {
			c := costs[op]
			rows = append(rows, Fig5Row{System: r.Name(), Op: op,
				Throughput: c.Throughput(), Traffic: c.TrafficPerElem()})
		}
	}
	return rows
}

// RenderFig5Custom prints custom-dataset rows (no dataset label).
func RenderFig5Custom(w io.Writer, rows []Fig5Row) {
	tb := stats.NewTable("op", "system", "throughput", "traffic B/elem")
	for _, r := range rows {
		tb.AddRow(r.Op, r.System, stats.HumanRate(r.Throughput), r.Traffic)
	}
	fmt.Fprint(w, tb)
}

// PScaleRow is one module-count point of the P-sweep extension.
type PScaleRow struct {
	P          int
	Op         string
	Throughput float64
}

// PScale sweeps the number of PIM modules (an extension; the paper fixes
// P=2048). PIM throughput should scale with P until the batch no longer
// saturates the modules or the channel becomes the bottleneck — the
// aggregate-bandwidth scaling that motivates BLIMP architectures (§1).
func PScale(p Params) []PScaleRow {
	p.fill()
	data := workload.Uniform(p.Seed, p.WarmupN, p.Dims)
	qs := workload.QueryPoints(p.Seed+41, data, p.BatchOps/4)
	ins := workload.QueryPoints(p.Seed+42, data, p.BatchOps)
	var rows []PScaleRow
	for _, modCount := range []int{p.P / 8, p.P / 4, p.P / 2, p.P} {
		if modCount < 2 {
			continue
		}
		pp := p
		pp.P = modCount
		r := newPIMRunner(pp, core.ThroughputOptimized, data, nil)
		knn := r.KNN(qs, 10)
		rows = append(rows, PScaleRow{P: modCount, Op: "10-NN", Throughput: knn.Throughput()})
		insert := r.Insert(ins)
		rows = append(rows, PScaleRow{P: modCount, Op: "Insert", Throughput: insert.Throughput()})
	}
	return rows
}

// RenderPScale prints the module sweep.
func RenderPScale(w io.Writer, rows []PScaleRow) {
	fmt.Fprintln(w, "Module scaling (extension): throughput vs number of PIM modules")
	tb := stats.NewTable("P", "op", "throughput")
	for _, r := range rows {
		tb.AddRow(r.P, r.Op, stats.HumanRate(r.Throughput))
	}
	fmt.Fprint(w, tb)
}

// PScaleCSV emits the module sweep.
func PScaleCSV(w io.Writer, rows []PScaleRow) error {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{fmt.Sprint(r.P), r.Op, f(r.Throughput)}
	}
	return writeCSV(w, []string{"modules", "op", "throughput_elems_per_s"}, out)
}

// FutureRow compares one operation on today's UPMEM model vs a
// forward-looking PIM machine.
type FutureRow struct {
	Op               string
	TodayThroughput  float64
	FutureThroughput float64
}

// Future reruns the core operations on the FutureCXLPIM machine projection
// (extension; speaks to the paper's Q2 — whether the theoretically-grounded
// design remains effective on future PIM systems).
func Future(p Params) []FutureRow {
	p.fill()
	data := workload.Uniform(p.Seed, p.WarmupN, p.Dims)
	run := func(machine costmodel.Machine) map[string]OpCost {
		machine.PIMModules = p.P
		f := float64(p.BatchOps) / paperBatchOps
		if f < 1 {
			machine.MuxSwitch *= f
			machine.PerModuleHdr *= f
		}
		tr := core.New(core.Config{Dims: p.Dims, Machine: machine, Tuning: core.ThroughputOptimized}, data)
		r := &pimRunner{name: "PIM-zd-tree", tree: tr}
		return runOps(r, makeBatches(p, data), p.BatchOps)
	}
	today := run(costmodel.UPMEMServer())
	future := run(costmodel.FutureCXLPIM())
	var rows []FutureRow
	for _, op := range OpNames {
		rows = append(rows, FutureRow{
			Op:               op,
			TodayThroughput:  today[op].Throughput(),
			FutureThroughput: future[op].Throughput(),
		})
	}
	return rows
}

// RenderFuture prints the projection.
func RenderFuture(w io.Writer, rows []FutureRow) {
	fmt.Fprintln(w, "Future-machine projection (extension): UPMEM vs CXL-class PIM")
	tb := stats.NewTable("op", "UPMEM model", "future model", "gain")
	for _, r := range rows {
		tb.AddRow(r.Op, stats.HumanRate(r.TodayThroughput), stats.HumanRate(r.FutureThroughput),
			fmt.Sprintf("%.2fx", r.FutureThroughput/r.TodayThroughput))
	}
	fmt.Fprint(w, tb)
}

// FutureCSV emits the projection.
func FutureCSV(w io.Writer, rows []FutureRow) error {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{r.Op, f(r.TodayThroughput), f(r.FutureThroughput)}
	}
	return writeCSV(w, []string{"op", "upmem_throughput", "future_throughput"}, out)
}

// BuildRow reports one system's construction throughput.
type BuildRow struct {
	System     string
	Points     int
	Throughput float64 // points indexed per second
}

// Build measures construction throughput (extension; §8 cites GPU spatial
// indexes building at under 20 MOp/s as a reference point).
func Build(p Params) []BuildRow {
	p.fill()
	data := workload.Uniform(p.Seed, p.WarmupN, p.Dims)
	var rows []BuildRow

	machine := scaledPIMMachine(p, false)
	tr := core.New(core.Config{Dims: p.Dims, Machine: machine, Tuning: core.ThroughputOptimized}, data)
	m := tr.System().Metrics()
	rows = append(rows, BuildRow{System: "PIM-zd-tree", Points: len(data),
		Throughput: costmodel.Throughput(len(data), m.TotalSeconds())})

	for _, mk := range []func(Params, []geom.Point) *cpuRunner{newPKDRunner, newZDRunner} {
		r := mk(p, nil)
		c := r.Insert(data) // bulk build via one batch into an empty tree
		rows = append(rows, BuildRow{System: r.Name(), Points: len(data), Throughput: c.Throughput()})
	}
	return rows
}

// RenderBuild prints construction throughput.
func RenderBuild(w io.Writer, rows []BuildRow) {
	fmt.Fprintln(w, "Construction throughput (extension; §8 cites GPU builds < 20 MOp/s)")
	tb := stats.NewTable("system", "points", "build throughput")
	for _, r := range rows {
		tb.AddRow(r.System, r.Points, stats.HumanRate(r.Throughput))
	}
	fmt.Fprint(w, tb)
}

// BuildCSV emits construction throughput.
func BuildCSV(w io.Writer, rows []BuildRow) error {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{r.System, fmt.Sprint(r.Points), f(r.Throughput)}
	}
	return writeCSV(w, []string{"system", "points", "throughput_points_per_s"}, out)
}

// ReconRow compares one maintenance strategy over a sequence of updates.
type ReconRow struct {
	Strategy    string
	OpsPerSec   float64
	RoundsPerOp float64
	BytesPerOp  float64
}

// Recon measures §2.2's argument against reconstruction-based maintenance
// (the strategy of the prior theoretical design [96]): the same stream of
// insert batches is applied once with PIM-zd-tree's batch-dynamic updates
// and once with a full rebuild after every batch.
func Recon(p Params) []ReconRow {
	p.fill()
	data := workload.Uniform(p.Seed, p.WarmupN, p.Dims)
	const batches = 5
	batchSets := make([][]geom.Point, batches)
	for i := range batchSets {
		batchSets[i] = workload.QueryPoints(p.Seed+int64(61+i), data, p.BatchOps/4)
	}
	totalOps := batches * (p.BatchOps / 4)

	measure := func(rebuild bool) ReconRow {
		r := newPIMRunner(p, core.ThroughputOptimized, data, nil)
		r.tree.System().ResetMetrics()
		for _, b := range batchSets {
			r.tree.Insert(b)
			if rebuild {
				r.tree.Rebuild()
			}
		}
		m := r.tree.System().Metrics()
		name := "batch-dynamic (PIM-zd-tree)"
		if rebuild {
			name = "periodic reconstruction"
		}
		return ReconRow{
			Strategy:    name,
			OpsPerSec:   costmodel.Throughput(totalOps, m.TotalSeconds()),
			RoundsPerOp: float64(m.Rounds) / float64(totalOps),
			BytesPerOp:  float64(m.ChannelBytes()) / float64(totalOps),
		}
	}
	return []ReconRow{measure(false), measure(true)}
}

// RenderRecon prints the maintenance comparison.
func RenderRecon(w io.Writer, rows []ReconRow) {
	fmt.Fprintln(w, "Maintenance strategies (extension; quantifies §2.2's critique of reconstruction)")
	tb := stats.NewTable("strategy", "insert throughput", "rounds/op", "chan B/op")
	for _, r := range rows {
		tb.AddRow(r.Strategy, stats.HumanRate(r.OpsPerSec), r.RoundsPerOp, r.BytesPerOp)
	}
	fmt.Fprint(w, tb)
}

// ReconCSV emits the maintenance comparison.
func ReconCSV(w io.Writer, rows []ReconRow) error {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{r.Strategy, f(r.OpsPerSec), f(r.RoundsPerOp), f(r.BytesPerOp)}
	}
	return writeCSV(w, []string{"strategy", "ops_per_s", "rounds_per_op", "channel_bytes_per_op"}, out)
}
