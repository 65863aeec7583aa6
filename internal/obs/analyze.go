package obs

import (
	"fmt"
	"io"
	"slices"
	"sort"
)

// Critical-path analysis of a flight-recorder dump: the post-hoc view of
// per-op latency attribution. Everything here reads only modeled fields
// (wall times are deliberately ignored), so the report for a given dump —
// and for dumps of identical runs at any GOMAXPROCS — is byte-identical.

// opAgg accumulates one op type's records.
type opAgg struct {
	total           []float64
	cpu, pim, comm  []float64
	rounds          int64
	imbalanceSum    float64
	imbalanceMax    float64
	imbalanceRounds int64
}

// WriteAnalysis renders the critical-path report: per-op-type p50/p99
// attribution of modeled time to CPU/PIM/comm, the top straggler modules by
// rounds attributed, and the per-op round-imbalance ranking. topN bounds
// the straggler table (<= 0: 10).
func (d *FlightDump) WriteAnalysis(w io.Writer, topN int) {
	if topN <= 0 {
		topN = 10
	}
	records := d.uniqueRecords()
	fmt.Fprintf(w, "flight-recorder analysis: %d records (ring %d, slow %d, captured %d, dropped %d)\n",
		len(records), len(d.Ring), len(d.Slow), d.Captured, d.Dropped)
	if len(records) == 0 {
		return
	}

	// Aggregate per op type and across rounds.
	byOp := make(map[string]*opAgg)
	var opNames []string
	straggler := make(map[int]int64)
	var totalStragRounds int64
	for i := range records {
		r := &records[i]
		a, ok := byOp[r.Op]
		if !ok {
			a = &opAgg{}
			byOp[r.Op] = a
			opNames = append(opNames, r.Op)
		}
		a.total = append(a.total, r.ModeledSeconds())
		a.cpu = append(a.cpu, r.CPUSeconds)
		a.pim = append(a.pim, r.PIMSeconds)
		a.comm = append(a.comm, r.CommSeconds)
		a.rounds += r.Rounds
		for _, rd := range r.RoundDetail {
			if rd.Straggler >= 0 {
				straggler[rd.Straggler]++
				totalStragRounds++
			}
			if rd.TotalCycles > 0 && rd.Active > 0 {
				imb := float64(rd.MaxCycles) * float64(rd.Active) / float64(rd.TotalCycles)
				a.imbalanceSum += imb
				if imb > a.imbalanceMax {
					a.imbalanceMax = imb
				}
				a.imbalanceRounds++
			}
		}
	}
	sort.Strings(opNames)
	for _, a := range byOp {
		for _, v := range [][]float64{a.total, a.cpu, a.pim, a.comm} {
			slices.Sort(v)
		}
	}

	fmt.Fprintf(w, "\nper-op modeled-latency attribution (us):\n")
	fmt.Fprintf(w, "%-12s  %5s  %10s  %10s  %9s  %9s  %9s  %9s  %9s  %9s  %-8s\n",
		"op", "count", "p50 total", "p99 total", "p50 cpu", "p99 cpu",
		"p50 pim", "p99 pim", "p50 comm", "p99 comm", "critical")
	for _, name := range opNames {
		a := byOp[name]
		cpu99 := Quantile(a.cpu, 0.99)
		pim99 := Quantile(a.pim, 0.99)
		comm99 := Quantile(a.comm, 0.99)
		// Critical component: largest p99 contribution; exact ties keep the
		// earlier of cpu < pim < comm, so the column is deterministic.
		critical, best := "cpu", cpu99
		if pim99 > best {
			critical, best = "pim", pim99
		}
		if comm99 > best {
			critical = "comm"
		}
		fmt.Fprintf(w, "%-12s  %5d  %10.2f  %10.2f  %9.2f  %9.2f  %9.2f  %9.2f  %9.2f  %9.2f  %-8s\n",
			name, len(a.total),
			Quantile(a.total, 0.50)*1e6, Quantile(a.total, 0.99)*1e6,
			Quantile(a.cpu, 0.50)*1e6, cpu99*1e6,
			Quantile(a.pim, 0.50)*1e6, pim99*1e6,
			Quantile(a.comm, 0.50)*1e6, comm99*1e6,
			critical)
	}

	fmt.Fprintf(w, "\ntop straggler modules (rounds as round straggler, of %d attributed):\n", totalStragRounds)
	if len(straggler) == 0 {
		fmt.Fprintf(w, "  (no round had a unique straggler)\n")
	} else {
		type modRounds struct {
			module int
			rounds int64
		}
		ranked := make([]modRounds, 0, len(straggler))
		for m, n := range straggler {
			ranked = append(ranked, modRounds{m, n})
		}
		sort.Slice(ranked, func(i, j int) bool {
			if ranked[i].rounds != ranked[j].rounds {
				return ranked[i].rounds > ranked[j].rounds
			}
			return ranked[i].module < ranked[j].module
		})
		if len(ranked) > topN {
			ranked = ranked[:topN]
		}
		fmt.Fprintf(w, "%-8s  %7s  %6s\n", "module", "rounds", "share")
		for _, mr := range ranked {
			fmt.Fprintf(w, "%-8d  %7d  %5.1f%%\n",
				mr.module, mr.rounds, 100*float64(mr.rounds)/float64(totalStragRounds))
		}
	}

	fmt.Fprintf(w, "\nper-op round imbalance (max-cycles x active / total-cycles; 1.0 = balanced):\n")
	fmt.Fprintf(w, "%-12s  %8s  %9s  %9s\n", "op", "rounds", "mean", "worst")
	ranked := append([]string(nil), opNames...)
	sort.Slice(ranked, func(i, j int) bool {
		a, b := byOp[ranked[i]], byOp[ranked[j]]
		am, bm := a.meanImbalance(), b.meanImbalance()
		if am != bm {
			return am > bm
		}
		return ranked[i] < ranked[j]
	})
	for _, name := range ranked {
		a := byOp[name]
		fmt.Fprintf(w, "%-12s  %8d  %9.3f  %9.3f\n",
			name, a.imbalanceRounds, a.meanImbalance(), a.imbalanceMax)
	}
}

func (a *opAgg) meanImbalance() float64 {
	if a.imbalanceRounds == 0 {
		return 0
	}
	return a.imbalanceSum / float64(a.imbalanceRounds)
}

// uniqueRecords merges ring and slow records, deduplicating by trace ID and
// preferring the slow copy (full round detail). Output is ordered by trace.
func (d *FlightDump) uniqueRecords() []OpRecord {
	seen := make(map[uint64]int, len(d.Ring)+len(d.Slow))
	var out []OpRecord
	for _, r := range d.Slow {
		seen[r.Trace] = len(out)
		out = append(out, r)
	}
	for _, r := range d.Ring {
		if _, dup := seen[r.Trace]; dup {
			continue
		}
		seen[r.Trace] = len(out)
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Trace < out[j].Trace })
	return out
}
