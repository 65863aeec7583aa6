package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// maxSpans bounds the in-memory trace. Per-layer metrics are computed from
// counters and response fields, never from the span list, so spans past the
// cap are only missing from the Perfetto view (the count is reported).
const maxSpans = 400_000

// span is one timed interval at a layer boundary, recorded by the benchmark
// around its own calls (the product code is not touched).
type span struct {
	name       string
	start, end int64 // ns since tracer start
	id, parent int32 // parent 0 = root
	rid        int64 // request or round id shared by the spans of one request
	ops        int32 // points or boxes the call carried
	lane       int32 // Perfetto thread lane
}

// tracer keeps spans in memory and writes them at exit. A nil *tracer is
// the untraced run: every method is a no-op.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	dropped int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// open starts a span and returns its id (0 when untraced or past the cap).
func (t *tracer) open(name string, parent int32, rid int64, lane int32) int32 {
	if t == nil {
		return 0
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return 0
	}
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{name: name, start: now, end: now, id: id, parent: parent, rid: rid, lane: lane})
	return id
}

// close ends span id, noting how many ops it carried.
func (t *tracer) close(id int32, ops int) {
	if t == nil || id == 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	s := &t.spans[id-1]
	s.end, s.ops = now, int32(ops)
	t.mu.Unlock()
}

// add records a span whose interval is already known (stage decompositions
// and per-shard walls reported by the product after the fact).
func (t *tracer) add(name string, start, end int64, parent int32, rid int64, ops int, lane int32) int32 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return 0
	}
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{name: name, start: start, end: end, id: id, parent: parent, rid: rid, ops: int32(ops), lane: lane})
	return id
}

func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format,
// which Perfetto loads directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int32          `json:"tid"`
	Args map[string]any `json:"args"`
}

// write dumps the spans as Chrome trace-event JSON.
func (t *tracer) write(path string, meta map[string]any) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	fmt.Fprint(w, `{"displayTimeUnit":"ms","otherData":`)
	if err := enc.Encode(meta); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	fmt.Fprint(w, `,"traceEvents":[`)
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, s := range t.spans {
		if i > 0 {
			w.WriteByte(',')
		}
		ev := chromeEvent{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.lane,
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Args: map[string]any{"id": s.id, "parent": s.parent, "rid": s.rid, "ops": s.ops},
		}
		if err := enc.Encode(ev); err != nil {
			f.Close()
			return fmt.Errorf("trace: %w", err)
		}
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	return f.Close()
}
