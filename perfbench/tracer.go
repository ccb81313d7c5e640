package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call the driver made into a layer. Parent is -1 for
// the workload's root span.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory around the driver's own calls into each
// module. A disabled tracer records nothing and never reads the clock, so
// the untraced runs that produce the end-to-end metrics pay one branch per
// call site.
type tracer struct {
	on     bool
	origin time.Time
	spans  []span
	open   []int32
}

func newTracer(on bool) *tracer { return &tracer{on: on, origin: time.Now()} }

// begin opens a span as a child of the innermost open one.
func (t *tracer) begin(name string) int32 {
	if !t.on {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.origin))})
	t.open = append(t.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.origin))
	t.open = t.open[:len(t.open)-1]
}

// selfNs sums, per span name, each span's duration minus the time its
// children cover — the time spent in that call and nowhere below it.
func (t *tracer) selfNs() map[string]int64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]int64{}
	for i, s := range t.spans {
		self[s.Name] += s.End - s.Start - child[i]
	}
	return self
}

// write dumps the spans as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	return f.Close()
}
