package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the
// runner around its own calls into the system: nothing inside the
// program is instrumented. Spans of one client operation share Op.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // since the tracer's epoch
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"` // index of the causing span, -1 for a root
	Op      int64  `json:"op"`
}

// maxSpans bounds the in-memory trace; past it spans are counted as
// dropped rather than recorded, so a long traced phase cannot grow the
// heap it is measuring without bound.
const maxSpans = 1 << 18

// tracer keeps spans in memory and writes them out once, at exit. A nil
// tracer records nothing, which is how untraced runs pay nothing.
type tracer struct {
	epoch time.Time

	mu      sync.Mutex
	spans   []span
	dropped int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, maxSpans)}
}

// record adds a finished span and returns its index (-1 when the
// tracer is off or full) for use as a child's Parent.
func (t *tracer) record(name string, start, end time.Time, parent int, op int64) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{
		Name:    name,
		StartNs: start.Sub(t.epoch).Nanoseconds(),
		EndNs:   end.Sub(t.epoch).Nanoseconds(),
		Parent:  parent,
		Op:      op,
	})
	return len(t.spans) - 1
}

// write dumps the trace as one JSON document.
func (t *tracer) write(path string, meta map[string]any) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	doc := struct {
		Meta    map[string]any `json:"meta"`
		Dropped int64          `json:"dropped_spans"`
		Spans   []span         `json:"spans"`
	}{meta, t.dropped, t.spans}
	data, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
