package obs

import "sort"

// Shard-order trace merging (internal/shard): each shard of a partitioned
// index records into its own Recorder while the shards execute in
// parallel, then the router drains every shard recorder *in shard order*
// into the parent recorder. The parallel schedule never touches the
// merged stream, so the export stays byte-identical at any GOMAXPROCS —
// the same discipline the fork-join update path uses for its stat arenas.
//
// The modeled timeline is serialized on merge: shard 0's window lands at
// the parent clock, shard 1's immediately after, and so on. That is a
// conservative (sum, not max) account of wall parallelism, chosen because
// a deterministic total order needs *one* clock; the shard-scale bench
// reports the parallel-rack speedup separately from per-shard metric
// deltas.

// Window is a detached recording window: everything a Recorder
// accumulated since it was created or last drained. Taking a window
// resets the source recorder, so per-shard recorders stay bounded.
type Window struct {
	Events   []Event
	Counters map[string]int64
	Total    Breakdown
	Rounds   int64
	Clock    float64
}

// Empty reports whether the window carries nothing to merge.
func (w Window) Empty() bool {
	return len(w.Events) == 0 && len(w.Counters) == 0 && w.Rounds == 0 &&
		w.Clock == 0 && w.Total == (Breakdown{})
}

// TakeWindow detaches the recorder's accumulated state and resets it for
// the next window: events, counters, totals, rounds and the modeled clock
// all return to zero while configuration (retention, sampling, sink,
// flight) is preserved. The recorder must have no open spans — windows
// are cut at operation boundaries, never inside one.
func (r *Recorder) TakeWindow() Window {
	if r == nil {
		return Window{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.stack) != 0 {
		panic("obs: TakeWindow with open spans")
	}
	w := Window{
		Events:   r.events,
		Counters: r.counters,
		Total:    r.total,
		Rounds:   r.rounds,
		Clock:    r.clock,
	}
	r.events = nil
	r.counters = make(map[string]int64)
	r.total = Breakdown{}
	r.rounds = 0
	r.clock = 0
	return w
}

// MergeWindow replays a detached window into r as if its events had been
// recorded here, starting at the current modeled clock: starts are
// rebased, round sequence numbers are renumbered to continue r's count,
// and counters merge additively. When spans are open on r (the shard
// router merges under a wrapping op span), the window's op spans are
// demoted to phases so the one-op-per-stack invariant of the stream
// holds, and the enclosing rounds feed r's flight recorder so the
// wrapping op's OpRecord carries full round detail. An attached sink sees
// every replayed event; callers merge windows in a fixed (shard) order to
// keep the stream deterministic.
func (r *Recorder) MergeWindow(w Window) {
	if r == nil || w.Empty() {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	base := r.clock
	depth := len(r.stack)
	parentOp, _ := r.attribution()
	for i := range w.Events {
		ev := w.Events[i]
		ev.Start += base
		ev.Depth += depth
		if ev.Kind == KindOp && depth > 0 {
			ev.Kind = KindPhase
			if ev.Phase == "" {
				ev.Phase = ev.Op // demoted op keeps its name as the phase label
			}
			ev.Op = parentOp
			ev.Trace = 0 // per-op trace IDs belong to the wrapping recorder
		}
		switch ev.Kind {
		case KindRound:
			r.rounds++
			ri := *ev.Round
			ri.Seq = r.rounds
			ev.Round = &ri
			if r.flight.opOpen() {
				r.flight.addRound(ri, ev.Breakdown.PIMSeconds, ev.Breakdown.CommSeconds)
			}
			if r.sink != nil {
				r.sink.OnRound(ev)
			}
		case KindCPU:
			if r.sink != nil {
				r.sink.OnCPUPhase(ev)
			}
		default: // op/phase spans; closed, since TakeWindow forbids open ones
			if r.sink != nil {
				r.sink.OnSpanEnd(ev)
			}
		}
		if r.retain {
			r.events = append(r.events, ev)
		}
	}
	if len(w.Counters) > 0 {
		names := make([]string, 0, len(w.Counters))
		for name := range w.Counters {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			r.counters[name] += w.Counters[name]
			if r.sink != nil {
				r.sink.OnCounter(name, w.Counters[name])
			}
		}
	}
	r.clock += w.Clock
	r.total.CPUSeconds += w.Total.CPUSeconds
	r.total.PIMSeconds += w.Total.PIMSeconds
	r.total.CommSeconds += w.Total.CommSeconds
}
