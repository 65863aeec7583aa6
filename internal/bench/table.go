package bench

import (
	"fmt"
	"io"
	"strings"

	"pimzdtree/internal/workload"
)

// Experiment is one entry of the experiment table: everything
// cmd/pimzd-bench knows about an experiment id.
type Experiment struct {
	ID string
	// InAll marks the members of `-experiment all`: the paper's panels.
	// Every experiment's CSV is modeled time and byte-identical at any
	// GOMAXPROCS; shardscale and saturate stay out of `all` because they
	// extend the paper's single-rack, batch-at-a-time evaluation (to
	// several racks, and to serving one request stream).
	InAll bool
	// Run executes the experiment once and writes its rows both ways: as
	// CSV to csv and as a rendered table to text.
	Run func(p Params, csv, text io.Writer) error
}

// Experiments is the table, in `-experiment all` order.
var Experiments = []Experiment{
	{"datasets", true, func(p Params, csv, text io.Writer) error { DatasetInfo(io.MultiWriter(csv, text), p); return nil }},
	{"fig5a", true, fig5Panel(workload.DatasetUniform)},
	{"fig5b", true, fig5Panel(workload.DatasetCosmos)},
	{"fig5c", true, fig5Panel(workload.DatasetOSM)},
	{"fig6", true, panel(Fig6, Fig6CSV, RenderFig6)},
	{"fig7", true, panel(Fig7, Fig7CSV, RenderFig7)},
	{"fig8", true, panel(Fig8, Fig8CSV, RenderFig8)},
	{"fig9", true, panel(Fig9, Fig9CSV, RenderFig9)},
	{"table2", true, panel(Table2, Table2CSV, RenderTable2)},
	{"table3", true, panel(Table3, Table3CSV, RenderTable3)},
	{"latency", true, panel(Latency, LatencyCSV, RenderLatency)},
	{"dims", true, panel(Dims, DimsCSV, RenderDims)},
	{"energy", true, panel(Energy, EnergyCSV, RenderEnergy)},
	{"strawman", true, panel(Strawman, StrawmanCSV, RenderStrawman)},
	{"pscale", true, panel(PScale, PScaleCSV, RenderPScale)},
	{"future", true, panel(Future, FutureCSV, RenderFuture)},
	{"bounds", true, panel(Bounds, BoundsCSV, RenderBounds)},
	{"build", true, panel(Build, BuildCSV, RenderBuild)},
	{"recon", true, panel(Recon, ReconCSV, RenderRecon)},
	{"saturate", false, panel(Saturate, SaturateCSV, RenderSaturate)},
	{"shardscale", false, panel(ShardScale, ShardScaleCSV, RenderShardScale)},
}

// panel adapts an experiment's rows/CSV/render triple to Experiment.Run.
func panel[R any](rows func(Params) []R, csv func(io.Writer, []R) error, render func(io.Writer, []R)) func(Params, io.Writer, io.Writer) error {
	return func(p Params, csvOut, text io.Writer) error {
		r := rows(p)
		render(text, r)
		return csv(csvOut, r)
	}
}

func fig5Panel(ds workload.Dataset) func(Params, io.Writer, io.Writer) error {
	return panel(
		func(p Params) []Fig5Row { return Fig5(ds, p) },
		Fig5CSV,
		func(w io.Writer, rows []Fig5Row) { RenderFig5(w, ds, rows) })
}

// ExperimentUsage is the `-experiment` help text.
func ExperimentUsage() string {
	var ids, notInAll []string
	for _, e := range Experiments {
		ids = append(ids, e.ID)
		if !e.InAll {
			notInAll = append(notInAll, e.ID)
		}
	}
	return "comma-separated experiment ids (" + strings.Join(ids, " ") +
		"), or all = every one of them except " + strings.Join(notInAll, ", ")
}

// Select resolves an `-experiment` value to table entries: "all", or a
// comma-separated id list in the order given. An unknown id is an error
// and selects nothing.
func Select(spec string) ([]Experiment, error) {
	var out []Experiment
	if spec == "all" {
		for _, e := range Experiments {
			if e.InAll {
				out = append(out, e)
			}
		}
		return out, nil
	}
ids:
	for _, id := range strings.Split(spec, ",") {
		id = strings.TrimSpace(id)
		for _, e := range Experiments {
			if e.ID == id {
				out = append(out, e)
				continue ids
			}
		}
		return nil, fmt.Errorf("unknown experiment %q", id)
	}
	return out, nil
}
