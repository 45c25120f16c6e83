package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (nothing inside the program is instrumented).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for an operation
	Op     int    `json:"op"`     // the traced operation this span belongs to
	Alloc  uint64 `json:"alloc_bytes"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out once the run ends.
// A nil tracer records nothing, so one loop serves traced and untraced
// passes.
type tracer struct {
	t0    time.Time
	h     *heapMeter
	spans []span
	stack []int
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), h: newHeapMeter()} }

// op opens a traced operation: the root span its layer spans nest under.
func (t *tracer) op(name string) {
	if t == nil {
		return
	}
	t.ops++
	t.begin(name)
}

// begin opens a span nested under the innermost open one.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	a, _ := t.h.read()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: t.ops, Alloc: a, Start: int64(time.Since(t.t0))})
	t.stack = append(t.stack, len(t.spans)-1)
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	a, _ := t.h.read()
	i := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[i].End = now
	t.spans[i].Alloc = a - t.spans[i].Alloc
}

// do runs f inside a span.
func (t *tracer) do(name string, f func() error) error {
	t.begin(name)
	defer t.end()
	return f()
}

// self returns the summed self time (span minus its children) and the
// summed allocation of every span whose name has the prefix.
func (t *tracer) self(prefix string) (time.Duration, uint64, int) {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	var d time.Duration
	var alloc uint64
	n := 0
	for i, s := range t.spans {
		if strings.HasPrefix(s.Name, prefix) {
			d += s.dur() - child[i]
			alloc += s.Alloc
			n++
		}
	}
	return d, alloc, n
}

// durations returns the duration of every span with exactly this name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// untracedShare is the part of the operations' wall time that no layer
// span covers, in percent, over every operation of the tracers.
func untracedShare(ts ...*tracer) float64 {
	var total, uncovered time.Duration
	for _, t := range ts {
		covered := make([]time.Duration, len(t.spans))
		for _, s := range t.spans {
			if s.Parent >= 0 && t.spans[s.Parent].Parent < 0 {
				covered[s.Parent] += s.dur()
			}
		}
		for i, s := range t.spans {
			if s.Parent < 0 {
				total += s.dur()
				uncovered += s.dur() - covered[i]
			}
		}
	}
	if total == 0 {
		return 0
	}
	return 100 * float64(uncovered) / float64(total)
}

// opWall sums the wall time of every operation span.
func (t *tracer) opWall() time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.Parent < 0 {
			d += s.dur()
		}
	}
	return d
}

// write dumps the spans as JSON under dir.
func (t *tracer) write(dir, workload string, seed int64) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", workload, seed)), data, 0o644)
}
