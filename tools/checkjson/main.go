// Command checkjson validates trace exports and snapshots in CI. Modes:
//
//	checkjson -chrome file.json   # Chrome trace-event JSON: must parse and
//	                              # contain a non-empty traceEvents array
//	checkjson -jsonl file.jsonl   # JSONL: every line must be valid JSON
//	checkjson -promtext file.txt  # Prometheus text exposition: must parse
//	                              # and pass the exposition lint (sorted
//	                              # families, histogram invariants)
//	checkjson -flight file.json   # flight-recorder dump: format id, ring
//	                              # ordered by trace, records internally
//	                              # consistent (non-negative counters,
//	                              # straggler >= -1, rounds match detail)
//	checkjson -slo file.json      # /snapshot/slo dump: format id,
//	                              # objectives sorted by op, windows in
//	                              # 1m/5m/1h order, bad <= total, and the
//	                              # burn-rate identity burn = err/(1-target)
//
// Exit status 0 on success; 1 with a diagnostic on the first violation.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"pimzdtree/internal/metrics"
	"pimzdtree/internal/obs"
)

func main() {
	var (
		chrome   = flag.String("chrome", "", "validate a Chrome trace-event JSON file")
		jsonl    = flag.String("jsonl", "", "validate a JSONL file line by line")
		promtext = flag.String("promtext", "", "lint a Prometheus text exposition file")
		flight   = flag.String("flight", "", "validate a flight-recorder dump (pimzd-serve -flight-out)")
		slo      = flag.String("slo", "", "validate an SLO snapshot (pimzd-serve /snapshot/slo)")
	)
	flag.Parse()
	switch {
	case *chrome != "":
		if err := checkChrome(*chrome); err != nil {
			fail(*chrome, err)
		}
	case *jsonl != "":
		if err := checkJSONL(*jsonl); err != nil {
			fail(*jsonl, err)
		}
	case *promtext != "":
		if err := checkPromText(*promtext); err != nil {
			fail(*promtext, err)
		}
	case *flight != "":
		if err := checkFlight(*flight); err != nil {
			fail(*flight, err)
		}
	case *slo != "":
		if err := checkSLO(*slo); err != nil {
			fail(*slo, err)
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: checkjson -chrome file.json | -jsonl file.jsonl | -promtext file.txt | -flight file.json | -slo file.json")
		os.Exit(2)
	}
}

func checkPromText(path string) error {
	fd, err := os.Open(path)
	if err != nil {
		return err
	}
	defer fd.Close()
	return metrics.LintText(fd)
}

func fail(path string, err error) {
	fmt.Fprintf(os.Stderr, "checkjson: %s: %v\n", path, err)
	os.Exit(1)
}

func checkChrome(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return err
	}
	if len(doc.TraceEvents) == 0 {
		return fmt.Errorf("empty traceEvents array")
	}
	return nil
}

func checkFlight(path string) error {
	fd, err := os.Open(path)
	if err != nil {
		return err
	}
	defer fd.Close()
	d, err := obs.ReadFlightDump(fd)
	if err != nil {
		return err
	}
	if d.Format != obs.FlightDumpFormat {
		return fmt.Errorf("format %q, want %q", d.Format, obs.FlightDumpFormat)
	}
	if d.Captured < int64(len(d.Ring)) {
		return fmt.Errorf("captured %d < ring length %d", d.Captured, len(d.Ring))
	}
	if d.Dropped < 0 {
		return fmt.Errorf("negative dropped count %d", d.Dropped)
	}
	if d.Captured > 0 && len(d.Ring) == 0 {
		return fmt.Errorf("captured %d ops but empty ring", d.Captured)
	}
	var prev uint64
	for i := range d.Ring {
		r := &d.Ring[i]
		if r.Trace <= prev {
			return fmt.Errorf("ring[%d]: trace %d not increasing (prev %d)", i, r.Trace, prev)
		}
		prev = r.Trace
		if err := checkOpRecord(r); err != nil {
			return fmt.Errorf("ring[%d]: %v", i, err)
		}
	}
	for i := range d.Slow {
		if err := checkOpRecord(&d.Slow[i]); err != nil {
			return fmt.Errorf("slow[%d]: %v", i, err)
		}
	}
	return nil
}

// checkSLO validates a /snapshot/slo dump: schema version, objective
// ordering, window identity (the fixed 1m/5m/1h ladder), and the
// burn-rate arithmetic each row claims.
func checkSLO(path string) error {
	fd, err := os.Open(path)
	if err != nil {
		return err
	}
	defer fd.Close()
	s, err := metrics.ReadSLOSnapshot(fd)
	if err != nil {
		return err
	}
	if s.Format != metrics.SLODumpFormat {
		return fmt.Errorf("format %q, want %q", s.Format, metrics.SLODumpFormat)
	}
	wantWindows := []string{"1m", "5m", "1h"}
	prevOp := ""
	for i, obj := range s.Objectives {
		if obj.Op == "" {
			return fmt.Errorf("objective[%d]: empty op", i)
		}
		if obj.Op <= prevOp {
			return fmt.Errorf("objective[%d]: op %q not sorted after %q", i, obj.Op, prevOp)
		}
		prevOp = obj.Op
		if obj.LatencySeconds <= 0 {
			return fmt.Errorf("%s: non-positive latency objective %g", obj.Op, obj.LatencySeconds)
		}
		if obj.Target <= 0 || obj.Target >= 1 {
			return fmt.Errorf("%s: target %g outside (0, 1)", obj.Op, obj.Target)
		}
		if obj.Bad > obj.Total {
			return fmt.Errorf("%s: all-time bad %d > total %d", obj.Op, obj.Bad, obj.Total)
		}
		if len(obj.Windows) != len(wantWindows) {
			return fmt.Errorf("%s: %d windows, want %d", obj.Op, len(obj.Windows), len(wantWindows))
		}
		for w, ws := range obj.Windows {
			if ws.Window != wantWindows[w] {
				return fmt.Errorf("%s: window[%d] %q, want %q", obj.Op, w, ws.Window, wantWindows[w])
			}
			if ws.Bad > ws.Total {
				return fmt.Errorf("%s/%s: bad %d > total %d", obj.Op, ws.Window, ws.Bad, ws.Total)
			}
			if ws.Total > obj.Total {
				return fmt.Errorf("%s/%s: window total %d > all-time total %d", obj.Op, ws.Window, ws.Total, obj.Total)
			}
			wantErr := 0.0
			if ws.Total > 0 {
				wantErr = float64(ws.Bad) / float64(ws.Total)
			}
			if !approxEq(ws.ErrorRate, wantErr) {
				return fmt.Errorf("%s/%s: error rate %g, want %g", obj.Op, ws.Window, ws.ErrorRate, wantErr)
			}
			if !approxEq(ws.BurnRate, ws.ErrorRate/(1-obj.Target)) {
				return fmt.Errorf("%s/%s: burn rate %g violates err/(1-target)", obj.Op, ws.Window, ws.BurnRate)
			}
			if !approxEq(ws.BudgetRemaining, 1-ws.BurnRate) {
				return fmt.Errorf("%s/%s: budget remaining %g, want 1-burn", obj.Op, ws.Window, ws.BudgetRemaining)
			}
		}
	}
	return nil
}

// approxEq tolerates JSON round-trip float noise.
func approxEq(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	scale := 1.0
	if b > 1 || b < -1 {
		scale = b
		if scale < 0 {
			scale = -scale
		}
	}
	return d <= 1e-9*scale
}

// checkOpRecord validates one per-op record's internal consistency.
func checkOpRecord(r *obs.OpRecord) error {
	switch {
	case r.Trace == 0:
		return fmt.Errorf("zero trace ID")
	case r.Op == "":
		return fmt.Errorf("trace %d: empty op name", r.Trace)
	case r.WallSeconds < 0 || r.CPUSeconds < 0 || r.PIMSeconds < 0 || r.CommSeconds < 0:
		return fmt.Errorf("trace %d: negative time", r.Trace)
	case r.Rounds < 0 || r.MaxActive < 0:
		return fmt.Errorf("trace %d: negative rounds or active-module count", r.Trace)
	case r.Straggler < -1:
		return fmt.Errorf("trace %d: straggler %d below -1", r.Trace, r.Straggler)
	case r.Straggler == -1 && r.StragglerRounds != 0:
		return fmt.Errorf("trace %d: straggler rounds %d without a straggler", r.Trace, r.StragglerRounds)
	case int64(len(r.RoundDetail)) > r.Rounds:
		return fmt.Errorf("trace %d: %d detailed rounds exceed round count %d", r.Trace, len(r.RoundDetail), r.Rounds)
	case !r.Truncated && int64(len(r.RoundDetail)) != r.Rounds:
		return fmt.Errorf("trace %d: %d detailed rounds != %d rounds on an untruncated record", r.Trace, len(r.RoundDetail), r.Rounds)
	}
	for j, rd := range r.RoundDetail {
		switch {
		case rd.Active < 0 || rd.MaxCycles < 0 || rd.TotalCycles < 0 || rd.BytesToPIM < 0 || rd.BytesFromPIM < 0:
			return fmt.Errorf("trace %d round %d: negative counter", r.Trace, j)
		case rd.MaxCycles > rd.TotalCycles:
			return fmt.Errorf("trace %d round %d: max cycles %d > total %d", r.Trace, j, rd.MaxCycles, rd.TotalCycles)
		case rd.PIMSeconds < 0 || rd.CommSeconds < 0:
			return fmt.Errorf("trace %d round %d: negative modeled time", r.Trace, j)
		case rd.Straggler < -1:
			return fmt.Errorf("trace %d round %d: straggler %d below -1", r.Trace, j, rd.Straggler)
		case rd.Straggler >= 0 && rd.Active == 0:
			return fmt.Errorf("trace %d round %d: straggler %d in an idle round", r.Trace, j, rd.Straggler)
		}
	}
	return nil
}

func checkJSONL(path string) error {
	fd, err := os.Open(path)
	if err != nil {
		return err
	}
	defer fd.Close()
	sc := bufio.NewScanner(fd)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		if !json.Valid(sc.Bytes()) {
			return fmt.Errorf("line %d: invalid JSON", line)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if line == 0 {
		return fmt.Errorf("empty file")
	}
	return nil
}
