package obs

import "testing"

// recordingSink captures every sink callback for assertion.
type recordingSink struct {
	spans    []Event
	rounds   []Event
	cpus     []Event
	counters []struct {
		name  string
		delta int64
	}
}

func (s *recordingSink) OnSpanEnd(e Event)  { s.spans = append(s.spans, e) }
func (s *recordingSink) OnRound(e Event)    { s.rounds = append(s.rounds, e) }
func (s *recordingSink) OnCPUPhase(e Event) { s.cpus = append(s.cpus, e) }
func (s *recordingSink) OnCounter(name string, delta int64) {
	s.counters = append(s.counters, struct {
		name  string
		delta int64
	}{name, delta})
}

func TestNilRecorderSinkMethods(t *testing.T) {
	var r *Recorder
	r.SetSink(&recordingSink{})
	r.SetRetainEvents(false)
	r.BeginOp("op")
	r.EndOp()
}

func driveRecorder(r *Recorder) {
	r.BeginOp("search")
	r.BeginPhase("wave")
	r.RecordRound(RoundInfo{ActiveModules: 4, MaxCycles: 100, TotalCycles: 250,
		BytesToPIM: 64, BytesFromPIM: 32, Seconds: 1e-6}, 8e-7, 2e-7, nil)
	r.EndPhase()
	r.RecordCPUPhase(CPUInfo{Work: 10, Traffic: 640, Chase: 2, Seconds: 3e-7})
	r.EndOp()
	r.Add("leaf-splits", 3)
	r.Add("leaf-splits", 2)
}

// TestSinkReceivesStream: the sink sees every op span, round, CPU phase and
// counter mutation in recording order, with deltas (not totals) for Add.
func TestSinkReceivesStream(t *testing.T) {
	r := New()
	sink := &recordingSink{}
	r.SetSink(sink)
	driveRecorder(r)

	// Both spans close (phase then op), but only events reaching OnSpanEnd
	// matter here: op and phase kinds are distinguished by the receiver.
	if len(sink.spans) != 2 {
		t.Fatalf("spans = %d, want 2 (phase + op)", len(sink.spans))
	}
	if sink.spans[1].Kind != KindOp || sink.spans[1].Name != "search" {
		t.Fatalf("last span = %+v, want the search op", sink.spans[1])
	}
	if sink.spans[1].Rounds != 1 {
		t.Fatalf("op rounds = %d, want 1", sink.spans[1].Rounds)
	}
	if len(sink.rounds) != 1 || sink.rounds[0].Round.BytesToPIM != 64 {
		t.Fatalf("rounds = %+v", sink.rounds)
	}
	if len(sink.cpus) != 1 || sink.cpus[0].CPU.Work != 10 {
		t.Fatalf("cpus = %+v", sink.cpus)
	}
	if len(sink.counters) != 2 {
		t.Fatalf("counter callbacks = %d, want 2", len(sink.counters))
	}
	if c := sink.counters[1]; c.name != "leaf-splits" || c.delta != 2 {
		t.Fatalf("second Add callback = %+v, want delta 2", c)
	}
}

// TestRetainEventsOff: streaming mode must keep memory bounded — no round
// or CPU events stored, and the span tree truncated once the stack drains —
// while the sink still sees everything.
func TestRetainEventsOff(t *testing.T) {
	r := New()
	sink := &recordingSink{}
	r.SetSink(sink)
	r.SetRetainEvents(false)
	for i := 0; i < 10; i++ {
		driveRecorder(r)
	}
	if n := len(r.Events()); n != 0 {
		t.Fatalf("retained %d events in streaming mode, want 0", n)
	}
	if len(sink.rounds) != 10 || len(sink.spans) != 20 {
		t.Fatalf("sink missed events: %d rounds, %d spans", len(sink.rounds), len(sink.spans))
	}
	// Totals still accumulate (they don't depend on retention).
	bd, rounds := r.Totals()
	if rounds != 10 || bd.Total() <= 0 {
		t.Fatalf("totals = %+v, %d rounds", bd, rounds)
	}
	// Counters registry is retention-independent too.
	if r.Counters()["leaf-splits"] != 50 {
		t.Fatalf("counters = %v", r.Counters())
	}
}

// TestRetainEventsOn (the default): everything is stored, as before.
func TestRetainEventsOnByDefault(t *testing.T) {
	r := New()
	driveRecorder(r)
	evs := r.Events()
	if len(evs) == 0 {
		t.Fatal("default recorder retained nothing")
	}
	var kinds []Kind
	for _, e := range evs {
		kinds = append(kinds, e.Kind)
	}
	want := map[Kind]bool{KindOp: false, KindPhase: false, KindRound: false, KindCPU: false}
	for _, k := range kinds {
		want[k] = true
	}
	for k, seen := range want {
		if !seen {
			t.Fatalf("no %v event retained (got %v)", k, kinds)
		}
	}
}
