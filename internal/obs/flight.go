package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Per-operation tracing: every top-level batch operation recorded through a
// Recorder with an attached FlightRecorder gets a trace ID and a compact
// OpRecord — wall time, the modeled CPU/PIM/comm decomposition, round count,
// peak active-module count, and the per-round straggler attribution derived
// from the dense module loads the simulator already computes. Records land
// in an always-on bounded ring (the flight recorder proper: what were the
// last N operations doing), and the K operations with the longest modeled
// time are retained with their full round detail by the slow-op capturer.
//
// Determinism contract: everything except WallSeconds derives from modeled
// quantities, so two identical runs produce identical records (and
// identical `pimzd-trace analyze` reports, which ignore wall time). Wall
// time is the one real-clock field — it is what a production operator
// tail-samples on, and it never feeds a golden-tested export.
//
// Concurrency: the writer side (beginOp/addRound/endOp) is invoked by
// exactly one Recorder under its lock, so the in-flight scratch needs no
// lock of its own; the published ring and slow list are guarded by fr.mu so
// admin scrapes can snapshot while batches run. A nil *FlightRecorder is
// the disabled state: every method is nil-safe, mirroring *Recorder.

// FlightDumpFormat identifies the JSON dump schema version.
const FlightDumpFormat = "pimzd-flight-v1"

// FlightConfig sizes a FlightRecorder.
type FlightConfig struct {
	// Ring is the flight-recorder ring capacity in records (<= 0: 256).
	Ring int
	// SlowK bounds the retained slow-op set, the top K ops by modeled
	// time (<= 0: 16).
	SlowK int
}

const (
	// ringRounds caps the per-record round detail kept in the ring; rounds
	// past the cap are counted but not detailed. Slow-op records always
	// keep full detail (up to maxRounds).
	ringRounds = 64
	// maxRounds bounds the in-flight round-detail scratch, a safety net
	// for pathological single ops.
	maxRounds = 4096
)

func (c *FlightConfig) fill() {
	if c.Ring <= 0 {
		c.Ring = 256
	}
	if c.SlowK <= 0 {
		c.SlowK = 16
	}
}

// FlightRound is one BSP round of an operation's record.
type FlightRound struct {
	Seq          int64   `json:"seq"` // recorder-global round sequence
	Active       int     `json:"active"`
	MaxCycles    int64   `json:"max_cycles"`
	TotalCycles  int64   `json:"total_cycles"`
	BytesToPIM   int64   `json:"bytes_to_pim"`
	BytesFromPIM int64   `json:"bytes_from_pim"`
	PIMSeconds   float64 `json:"pim_seconds"`
	CommSeconds  float64 `json:"comm_seconds"`
	// Straggler is the round's unique slowest module (most cycles; channel
	// bytes break ties and stand in for pure-transfer rounds), or -1 when
	// the round was balanced (no unique maximum) or idle.
	Straggler int `json:"straggler"`
}

// OpRecord is the compact per-operation trace record.
type OpRecord struct {
	Trace       uint64  `json:"trace"` // monotone per-recorder trace ID
	Op          string  `json:"op"`
	WallSeconds float64 `json:"wall_seconds"` // real time (non-deterministic)
	CPUSeconds  float64 `json:"cpu_seconds"`  // modeled decomposition
	PIMSeconds  float64 `json:"pim_seconds"`
	CommSeconds float64 `json:"comm_seconds"`
	Rounds      int64   `json:"rounds"`
	MaxActive   int     `json:"max_active_modules"`

	// Straggler is the module that was the per-round straggler most often
	// within this op (-1 when no round had one); StragglerRounds counts how
	// many rounds it was. Ties resolve to the lowest module id.
	Straggler       int   `json:"straggler"`
	StragglerRounds int64 `json:"straggler_rounds"`

	RoundDetail []FlightRound `json:"round_detail,omitempty"`
	// Truncated marks a record whose RoundDetail was capped (ring records
	// past ringRounds, or any op past maxRounds).
	Truncated bool `json:"truncated,omitempty"`
}

// ModeledSeconds returns the record's modeled end-to-end time.
func (r *OpRecord) ModeledSeconds() float64 {
	return r.CPUSeconds + r.PIMSeconds + r.CommSeconds
}

// FlightDump is the JSON snapshot of a FlightRecorder: the ring oldest
// first, the slow-op set slowest first, and the capture totals.
type FlightDump struct {
	Format   string     `json:"format"`
	Captured int64      `json:"captured"` // ops ever recorded
	Dropped  int64      `json:"dropped"`  // ring records overwritten
	Ring     []OpRecord `json:"ring"`
	Slow     []OpRecord `json:"slow"`
}

// FlightRecorder is the bounded per-op record store. Create with
// NewFlightRecorder and attach to a Recorder with SetFlight; nil disables
// per-op tracing at the cost of one pointer test per op.
type FlightRecorder struct {
	mu       sync.Mutex
	seq      uint64 // last assigned trace ID
	captured int64
	dropped  int64
	ring     []OpRecord // capacity cfg.Ring; slots reuse round slices
	ringLen  int
	ringNext int // slot the next record lands in
	slow     TopK[OpRecord]

	// In-flight scratch, written only by the owning Recorder (under its
	// lock). Round slices and straggler-count lanes are reused, so the
	// steady state allocates nothing.
	curOpen      bool
	cur          OpRecord
	curRounds    []FlightRound
	wallStart    time.Time
	stragCount   []int32 // per-module straggler-round counts (sparse reset)
	stragTouched []int32 // modules touched this op
}

// NewFlightRecorder returns an enabled flight recorder.
func NewFlightRecorder(cfg FlightConfig) *FlightRecorder {
	cfg.fill()
	return &FlightRecorder{
		ring: make([]OpRecord, cfg.Ring),
		slow: NewTopK[OpRecord](cfg.SlowK),
	}
}

// Enabled reports whether per-op records are being collected.
func (f *FlightRecorder) Enabled() bool { return f != nil }

// beginOp opens the in-flight record and assigns its trace ID. Called by
// the owning Recorder when a top-level op span opens.
func (f *FlightRecorder) beginOp(name string) uint64 {
	f.mu.Lock()
	f.seq++
	trace := f.seq
	f.mu.Unlock()
	f.cur = OpRecord{Trace: trace, Op: name, Straggler: -1}
	f.curRounds = f.curRounds[:0]
	f.curOpen = true
	f.wallStart = time.Now()
	return trace
}

// opOpen reports whether an op record is being built (rounds outside any
// op — none exist today — would not be attributed).
func (f *FlightRecorder) opOpen() bool { return f != nil && f.curOpen }

// addRound appends one BSP round to the in-flight record. Called by the
// owning Recorder from RecordRound.
func (f *FlightRecorder) addRound(ri RoundInfo, pimSec, commSec float64) {
	if len(f.curRounds) >= maxRounds {
		f.cur.Truncated = true
		f.noteStraggler(ri.Straggler)
		if ri.ActiveModules > f.cur.MaxActive {
			f.cur.MaxActive = ri.ActiveModules
		}
		return
	}
	f.curRounds = append(f.curRounds, FlightRound{
		Seq:          ri.Seq,
		Active:       ri.ActiveModules,
		MaxCycles:    ri.MaxCycles,
		TotalCycles:  ri.TotalCycles,
		BytesToPIM:   ri.BytesToPIM,
		BytesFromPIM: ri.BytesFromPIM,
		PIMSeconds:   pimSec,
		CommSeconds:  commSec,
		Straggler:    ri.Straggler,
	})
	if ri.ActiveModules > f.cur.MaxActive {
		f.cur.MaxActive = ri.ActiveModules
	}
	f.noteStraggler(ri.Straggler)
}

// noteStraggler bumps the per-module straggler-round count, growing the
// lanes on first sight of a module and remembering it for the sparse reset.
func (f *FlightRecorder) noteStraggler(module int) {
	if module < 0 {
		return
	}
	if module >= len(f.stragCount) {
		next := make([]int32, module+1)
		copy(next, f.stragCount)
		f.stragCount = next
	}
	if f.stragCount[module] == 0 {
		f.stragTouched = append(f.stragTouched, int32(module))
	}
	f.stragCount[module]++
}

// endOp finalizes and publishes the in-flight record. breakdown and rounds
// are the op span's closing totals (the same numbers the span event
// carries).
func (f *FlightRecorder) endOp(breakdown Breakdown, rounds int64) {
	if !f.curOpen {
		return
	}
	f.curOpen = false
	rec := f.cur
	rec.WallSeconds = time.Since(f.wallStart).Seconds()
	rec.CPUSeconds = breakdown.CPUSeconds
	rec.PIMSeconds = breakdown.PIMSeconds
	rec.CommSeconds = breakdown.CommSeconds
	rec.Rounds = rounds

	// Op-level straggler: the module that was the round straggler most
	// often; ties resolve to the lowest id (ascending touched scan order is
	// not guaranteed, so compare explicitly). The lanes reset sparsely —
	// only touched entries — so wide machines don't pay P per op.
	var best int32 = -1
	var bestN int32
	for _, m := range f.stragTouched {
		n := f.stragCount[m]
		f.stragCount[m] = 0
		if n > bestN || (n == bestN && best != -1 && m < best) {
			best, bestN = m, n
		}
	}
	f.stragTouched = f.stragTouched[:0]
	rec.Straggler = int(best)
	rec.StragglerRounds = int64(bestN)

	f.mu.Lock()
	f.publishRing(rec)
	f.publishSlow(rec)
	f.captured++
	f.mu.Unlock()
}

// publishRing copies the record into the next ring slot, reusing the
// slot's round slice and capping detail at ringRounds; caller holds f.mu.
func (f *FlightRecorder) publishRing(rec OpRecord) {
	slot := &f.ring[f.ringNext]
	detail := f.curRounds
	truncated := rec.Truncated
	if len(detail) > ringRounds {
		detail = detail[:ringRounds]
		truncated = true
	}
	rounds := slot.RoundDetail
	*slot = rec
	slot.RoundDetail = append(rounds[:0], detail...)
	slot.Truncated = truncated
	f.ringNext = (f.ringNext + 1) % len(f.ring)
	if f.ringLen < len(f.ring) {
		f.ringLen++
	} else {
		f.dropped++
	}
}

// publishSlow offers the record to the top-K slow set, ranked by modeled
// time (the deterministic view), keeping full round detail and reusing an
// evicted slot's round slice; caller holds f.mu.
func (f *FlightRecorder) publishSlow(rec OpRecord) {
	slot := f.slow.Slot(rec.ModeledSeconds(), rec.Trace)
	if slot == nil {
		return
	}
	rounds := slot.RoundDetail
	*slot = rec
	slot.RoundDetail = append(rounds[:0], f.curRounds...)
}

// LastTrace returns the most recently assigned trace ID (0 before any op).
func (f *FlightRecorder) LastTrace() uint64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.seq
}

// Snapshot returns a deep-copied dump: the ring oldest first, the slow set
// ordered slowest first (ties by ascending trace ID).
func (f *FlightRecorder) Snapshot() FlightDump {
	if f == nil {
		return FlightDump{Format: FlightDumpFormat}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	d := FlightDump{
		Format:   FlightDumpFormat,
		Captured: f.captured,
		Dropped:  f.dropped,
		Ring:     make([]OpRecord, 0, f.ringLen),
		Slow:     f.slow.Sorted(cloneRecord),
	}
	start := f.ringNext - f.ringLen
	if start < 0 {
		start += len(f.ring)
	}
	for i := 0; i < f.ringLen; i++ {
		d.Ring = append(d.Ring, cloneRecord(f.ring[(start+i)%len(f.ring)]))
	}
	return d
}

// cloneRecord deep-copies a record's round detail.
func cloneRecord(r OpRecord) OpRecord {
	r.RoundDetail = append([]FlightRound(nil), r.RoundDetail...)
	return r
}

// WriteJSON writes the dump as indented JSON — the on-disk flight-recorder
// format `pimzd-trace analyze` and `checkjson -flight` read.
func (f *FlightRecorder) WriteJSON(w io.Writer) error {
	d := f.Snapshot()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// ReadFlightDump parses a flight-recorder JSON dump.
func ReadFlightDump(r io.Reader) (*FlightDump, error) {
	var d FlightDump
	dec := json.NewDecoder(r)
	if err := dec.Decode(&d); err != nil {
		return nil, err
	}
	return &d, nil
}
