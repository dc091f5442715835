package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// tracer keeps the spans of a traced run in memory until writeFile. A nil
// *tracer records nothing, so untraced runs pay one nil check per span.
type tracer struct {
	t0    time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []spanRec
}

// spanRec is one finished span: a call into a layer, timed from the
// benchmark's side, linked to the span that caused it.
type spanRec struct {
	ID      uint64         `json:"id"`
	Parent  uint64         `json:"parent,omitempty"`
	Name    string         `json:"name"`
	StartNS int64          `json:"start_ns"`
	EndNS   int64          `json:"end_ns"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// span is an open span.
type span struct {
	t   *tracer
	rec spanRec
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span under parent (nil for a root span); kv are attribute
// key/value pairs.
func (t *tracer) start(parent *span, name string, kv ...any) *span {
	if t == nil {
		return nil
	}
	var pid uint64
	if parent != nil {
		pid = parent.rec.ID
	}
	return t.startUnder(pid, name, kv...)
}

// startUnder opens a span whose parent is known only by id, as when the
// parent travels in a request header.
func (t *tracer) startUnder(parentID uint64, name string, kv ...any) *span {
	if t == nil {
		return nil
	}
	s := &span{t: t, rec: spanRec{
		ID:      t.next.Add(1),
		Parent:  parentID,
		Name:    name,
		StartNS: time.Since(t.t0).Nanoseconds(),
	}}
	s.set(kv...)
	return s
}

// set adds attributes to an open span.
func (s *span) set(kv ...any) {
	if s == nil {
		return
	}
	for i := 0; i+1 < len(kv); i += 2 {
		if s.rec.Attrs == nil {
			s.rec.Attrs = make(map[string]any)
		}
		s.rec.Attrs[fmt.Sprint(kv[i])] = kv[i+1]
	}
}

// id returns the span's identifier (0 for a nil span).
func (s *span) id() uint64 {
	if s == nil {
		return 0
	}
	return s.rec.ID
}

// end closes the span and keeps it.
func (s *span) end() {
	if s == nil {
		return
	}
	s.rec.EndNS = time.Since(s.t.t0).Nanoseconds()
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, s.rec)
	s.t.mu.Unlock()
}

func (t *tracer) len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// snapshot returns a copy of the finished spans.
func (t *tracer) snapshot() []spanRec {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]spanRec(nil), t.spans...)
}

// writeFile writes the spans as JSON lines, one span per line.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
