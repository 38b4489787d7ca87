package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one traced interval: a call the benchmark made into a layer,
// or a job interval rebuilt from a daemon's status timestamps. Times
// are seconds since the tracer started; parent 0 is the root.
type span struct {
	ID     int            `json:"id"`
	Parent int            `json:"parent"`
	Name   string         `json:"name"`
	Start  float64        `json:"start_s"`
	End    float64        `json:"end_s"`
	Attrs  map[string]any `json:"attrs,omitempty"`
	closed bool
}

// tracer keeps spans in memory until write. A nil tracer is off: every
// method is a no-op returning span id 0, so untraced runs pay nothing.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent and returns its id.
func (t *tracer) begin(parent int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: now.Sub(t.t0).Seconds()})
	return len(t.spans)
}

// end closes span id, attaching optional key/value attributes.
func (t *tracer) end(id int, kv ...any) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now.Sub(t.t0).Seconds()
	s.closed = true
	s.Attrs = attrs(s.Attrs, kv)
}

// add records a span whose interval was measured elsewhere (a daemon's
// job timestamps) and returns its id.
func (t *tracer) add(parent int, name string, start, end time.Time, kv ...any) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Seconds(), End: end.Sub(t.t0).Seconds(),
		Attrs: attrs(nil, kv), closed: true})
	return len(t.spans)
}

func attrs(m map[string]any, kv []any) map[string]any {
	for i := 0; i+1 < len(kv); i += 2 {
		if m == nil {
			m = make(map[string]any, len(kv)/2)
		}
		m[kv[i].(string)] = kv[i+1]
	}
	return m
}

// write stores the spans and the run record as one JSON document. A
// span left open (a failed call path) is closed at write time.
func (t *tracer) write(path string, rec runRecord) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := time.Since(t.t0).Seconds()
	for i := range t.spans {
		if !t.spans[i].closed {
			t.spans[i].End = now
		}
	}
	b, err := json.MarshalIndent(struct {
		Record runRecord `json:"record"`
		Spans  []span    `json:"spans"`
	}{rec, t.spans}, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// count returns the number of recorded spans.
func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}
