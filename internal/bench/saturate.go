package bench

import (
	"fmt"
	"io"

	"pimzdtree/internal/core"
	"pimzdtree/internal/serve"
	"pimzdtree/internal/stats"
	"pimzdtree/internal/workload"
)

// Serving-engine saturation sweep on the modeled clock: the same open-loop
// Poisson arrivals are offered to a FIFO engine (one request per epoch and
// per tree batch, the conventional request-at-a-time server) and to the
// epoch pipeline (everything that arrived during an epoch forms the next
// one). Both run in serve.Replay over fresh trees on the unscaled machine,
// as Fig. 7 does: a one-request batch pays the full mux-switch and launch
// cost that coalescing amortizes. Each step reports achieved throughput,
// shed requests and modeled latency quantiles; the headline is the ratio
// of the two modes' maximum sustained load. The CSV is byte-identical at
// any GOMAXPROCS and any host speed. The sweep is not part of `-experiment
// all`: it is the serving extension, not a paper panel.

// SaturateRow is one (mode, offered-load) step of the sweep.
type SaturateRow struct {
	Mode       string
	OfferedRPS float64
	LoadStats
	Sustained bool
}

// saturateSteps is the offered-load sweep in requests per modeled second,
// set past what request-at-a-time execution can absorb so the FIFO curve
// visibly collapses while the pipeline keeps climbing.
var saturateSteps = []float64{500, 1000, 2000, 4000, 8000, 16000, 32000, 64000, 128000}

// saturateRequests is the number of requests each step offers.
const saturateRequests = 4000

// Saturate sweeps both serving modes over identical fresh trees. Requests
// and arrival gaps come from serve.DefaultMix's stream: one-point
// (one-box) requests, kNN at k = 8.
func Saturate(p Params) []SaturateRow {
	p.fill()
	data := workload.Uniform(p.Seed, p.WarmupN, p.Dims)
	traffic := serve.NewTraffic(data, workload.QueryBoxes(p.Seed+1, data, 256, 64), serve.DefaultMix, 8, 0)
	var rows []SaturateRow
	for _, mode := range []string{"fifo", "pipeline"} {
		tree := newRawPIMRunner(p, core.ThroughputOptimized, data).tree
		rp := serve.NewReplay(serve.Config{Backend: serve.NewTreeBackend(tree)},
			func() float64 { return tree.System().Metrics().TotalSeconds() }, mode == "fifo")
		rows = append(rows, saturateSweep(rp, mode, traffic, p.Seed, saturateSteps)...)
	}
	return rows
}

// saturateSweep offers rp each of steps in turn (step i draws
// t.Stream(seed + i*7919)) and stops after the first step rp does not
// sustain: later steps would only collapse further, and on the modeled
// clock a collapsed step still executes its whole backlog.
func saturateSweep(rp *serve.Replay, mode string, t *serve.Traffic, seed int64, steps []float64) []SaturateRow {
	var rows []SaturateRow
	for i, rps := range steps {
		res := rp.Run(t.Stream(seed+int64(i)*7919), rps, saturateRequests)
		tl := tally{shed: res.Shed, errs: res.Errors, lat: res.Latency}
		row := SaturateRow{Mode: mode, OfferedRPS: rps, LoadStats: tl.stats(res.End)}
		row.Sustained = sustained(row.LoadStats, saturateRequests/res.LastArrival)
		rows = append(rows, row)
		if !row.Sustained {
			break
		}
	}
	return rows
}

// sustained judges a step: shedding stayed under 1% and completions kept
// pace (>= 95%) with arrivalRPS, the rate at which the step's requests
// actually arrived. Against the nominal rate, a step whose Poisson draw
// came up short would fail even though the engine kept up.
func sustained(st LoadStats, arrivalRPS float64) bool {
	total := st.Completed + st.Shed + st.Errors
	return total > 0 && float64(st.Shed) < 0.01*float64(total) && st.AchievedRPS >= 0.95*arrivalRPS
}

// maxSustained returns the highest sustained achieved rate per mode.
func maxSustained(rows []SaturateRow) map[string]float64 {
	out := map[string]float64{}
	for _, r := range rows {
		if r.Sustained && r.AchievedRPS > out[r.Mode] {
			out[r.Mode] = r.AchievedRPS
		}
	}
	return out
}

// RenderSaturate prints the sweep with the pipeline/FIFO capacity ratio.
func RenderSaturate(w io.Writer, rows []SaturateRow) {
	fmt.Fprintln(w, "Saturation: open-loop Poisson sweep on the modeled clock, FIFO vs epoch pipeline")
	tb := stats.NewTable("mode", "offered r/s", "achieved r/s", "shed", "err", "p50 ms", "p99 ms", "p999 ms", "sustained")
	for _, r := range rows {
		sus := ""
		if r.Sustained {
			sus = "yes"
		}
		tb.AddRow(r.Mode, fmt.Sprintf("%.0f", r.OfferedRPS), fmt.Sprintf("%.0f", r.AchievedRPS),
			r.Shed, r.Errors,
			fmt.Sprintf("%.3f", r.P50*1e3), fmt.Sprintf("%.3f", r.P99*1e3), fmt.Sprintf("%.3f", r.P999*1e3), sus)
	}
	fmt.Fprint(w, tb)
	ms := maxSustained(rows)
	fmt.Fprintf(w, "max sustained: fifo %.0f r/s, pipeline %.0f r/s", ms["fifo"], ms["pipeline"])
	if ms["fifo"] > 0 {
		fmt.Fprintf(w, " (%.1fx)", ms["pipeline"]/ms["fifo"])
	}
	fmt.Fprintln(w)
}

// SaturateCSV emits the sweep.
func SaturateCSV(w io.Writer, rows []SaturateRow) error {
	out := make([][]string, len(rows))
	for i, r := range rows {
		sus := "0"
		if r.Sustained {
			sus = "1"
		}
		out[i] = []string{r.Mode, f(r.OfferedRPS), f(r.AchievedRPS),
			fmt.Sprint(r.Completed), fmt.Sprint(r.Shed), fmt.Sprint(r.Errors),
			f(r.P50), f(r.P99), f(r.P999), sus}
	}
	return writeCSV(w, []string{"mode", "offered_rps", "achieved_rps", "completed",
		"shed", "errors", "p50_seconds", "p99_seconds", "p999_seconds", "sustained"}, out)
}
