package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed bench-side call into a layer: a segment, frame
// send, POST, query or poll against the child process, or one rung of
// the in-process ladder. Times are nanoseconds since the run began.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// selfTime summarizes spans by name: count, total duration, and self
// time — each span's duration minus the part of it its children cover.
type selfTime struct {
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

func (t *tracer) summary() map[string]selfTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]selfTime)
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		dur := s.End - s.Start
		self := dur - covered(children[s.ID], s.Start, s.End)
		st := out[s.Name]
		st.Count++
		st.TotalMS += float64(dur) / 1e6
		st.SelfMS += float64(self) / 1e6
		out[s.Name] = st
	}
	return out
}

// covered returns how much of [lo, hi] the union of the spans covers;
// children may overlap (a poll during a frame send), so intervals are
// merged before summing.
func covered(spans []span, lo, hi int64) int64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total, curLo, curHi int64 = 0, -1, -1
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if s.End < 0 || b <= a {
			continue
		}
		if a > curHi {
			total += curHi - curLo
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	return total + curHi - curLo
}

// write saves the spans and their self-time summary as JSON.
func (t *tracer) write(path string) error {
	summary := t.summary()
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(map[string]any{"spans": t.spans, "self": summary})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
