package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call the benchmark made into a layer.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 at the root
	Batch  int    `json:"batch"`  // batch index within the replay, -1 outside batches
}

// tracer keeps spans in memory; write saves them when the run ends. A
// nil *tracer records nothing, so untraced code paths share the traced
// ones at the cost of a nil check.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, batch int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.epoch)), Parent: parent, Batch: batch})
	return len(t.spans) - 1
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	sp := &t.spans[id]
	sp.End = int64(time.Since(t.epoch))
	return time.Duration(sp.End - sp.Start)
}

// total sums the durations of every span called name.
func (t *tracer) total(name string) time.Duration {
	var d time.Duration
	for _, sp := range t.spans {
		if sp.Name == name {
			d += time.Duration(sp.End - sp.Start)
		}
	}
	return d
}

// durations lists the durations of every span called name, in
// microseconds.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, sp := range t.spans {
		if sp.Name == name {
			out = append(out, float64(sp.End-sp.Start)/1e3)
		}
	}
	return out
}

// write saves the host context and every span as JSON lines.
func (t *tracer) write(path string, host hostInfo) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(host); err != nil {
		f.Close()
		return err
	}
	for _, sp := range t.spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
