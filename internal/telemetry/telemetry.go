// Package telemetry provides the cheap runtime metrics layer behind
// online monitoring: allocation-free atomic counters and gauges that a
// hot path updates with single RMW instructions, grouped into named
// Sets with Prometheus text exposition.
//
// The design splits instrumentation from exposition. Components own
// Counter/Gauge values as plain struct fields (single-writer updates
// cost one uncontended atomic add, a few nanoseconds against the
// microsecond-scale per-request cost of any stack model) and register
// them into a Set via MetricsInto-style methods; serving layers own
// the Set and render it on demand. Reads are always race-free: every
// exported value is either an atomic load or a caller-supplied
// function reading atomics, so /metrics can be scraped while workers
// are mid-stream.
package telemetry

import (
	"fmt"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use.
type Counter struct{ v atomic.Uint64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Store sets the counter to v. It is for a single writer publishing a
// monotone count it keeps in a plain field, so readers see the count
// as of the last Store.
func (c *Counter) Store(v uint64) { c.v.Store(v) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous value. The zero value is ready to
// use.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds d (may be negative).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Kind tags a metric for the Prometheus TYPE line.
type Kind string

// Metric kinds.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// metric is one registered exposition entry: a scalar reader, or a
// histogram (read nil, hist set).
type metric struct {
	name string
	help string
	kind Kind
	read func() float64
	hist *Histogram
}

// Set is a named collection of metrics. Registration methods panic on
// duplicate or empty names (programming errors); reads take a snapshot
// under an RWMutex, so registration may race with exposition but
// individual value reads never block writers.
type Set struct {
	mu      sync.RWMutex
	metrics []metric
	names   map[string]struct{}
}

// NewSet returns an empty metric set.
func NewSet() *Set { return &Set{names: make(map[string]struct{})} }

// register appends one exposition entry.
func (s *Set) register(name, help string, kind Kind, read func() float64) {
	if name == "" || read == nil {
		panic("telemetry: register with empty name or nil reader")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.names[name]; dup {
		panic("telemetry: duplicate metric " + name)
	}
	s.names[name] = struct{}{}
	s.metrics = append(s.metrics, metric{name: name, help: help, kind: kind, read: read})
}

// Counter creates, registers and returns a new counter.
func (s *Set) Counter(name, help string) *Counter {
	c := &Counter{}
	s.CounterFunc(name, help, c.Load)
	return c
}

// Gauge creates, registers and returns a new gauge.
func (s *Set) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	s.register(name, help, KindGauge, func() float64 { return float64(g.Load()) })
	return g
}

// CounterFunc registers an externally owned counter value — typically
// the Load method of a component's Counter field. fn must be safe to
// call from any goroutine.
func (s *Set) CounterFunc(name, help string, fn func() uint64) {
	s.register(name, help, KindCounter, func() float64 { return float64(fn()) })
}

// GaugeFunc registers an externally owned gauge value. fn must be safe
// to call from any goroutine.
func (s *Set) GaugeFunc(name, help string, fn func() float64) {
	s.register(name, help, KindGauge, fn)
}

// snapshot copies the registration list so exposition runs without
// holding the lock across metric reads.
func (s *Set) snapshot() []metric {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]metric, len(s.metrics))
	copy(out, s.metrics)
	return out
}

// WritePrometheus renders the set in the Prometheus text exposition
// format (one HELP/TYPE/value triple per metric, registration order).
func (s *Set) WritePrometheus(w io.Writer) error {
	return s.WritePrometheusLabeled(w, "", nil)
}

// WritePrometheusLabeled renders the set with a label suffix attached
// to every sample, e.g. labels = `tenant="t1"` yields
// `name{tenant="t1"} value`. A multi-tenant exposition concatenates
// many sets sharing metric names; to keep the output a valid single
// document, HELP/TYPE header lines are emitted only for metric names
// not yet present in seen (which is updated in place). Passing a nil
// seen emits headers unconditionally; empty labels render bare names.
func (s *Set) WritePrometheusLabeled(w io.Writer, labels string, seen map[string]bool) error {
	suffix := ""
	if labels != "" {
		suffix = "{" + labels + "}"
	}
	for _, m := range s.snapshot() {
		if seen == nil || !seen[m.name] {
			if seen != nil {
				seen[m.name] = true
			}
			if m.help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.name, m.help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.name, m.kind); err != nil {
				return err
			}
		}
		if m.hist != nil {
			if err := m.hist.writePrometheus(w, m.name, labels); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintf(w, "%s%s %s\n", m.name, suffix, formatValue(m.read())); err != nil {
			return err
		}
	}
	return nil
}

// EscapeLabelValue escapes a string for use inside a Prometheus label
// value (backslash, double quote and newline, per the text format).
func EscapeLabelValue(v string) string {
	var b []byte
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			b = append(b, '\\', '\\')
		case '"':
			b = append(b, '\\', '"')
		case '\n':
			b = append(b, '\\', 'n')
		default:
			b = append(b, c)
		}
	}
	return string(b)
}

// formatValue renders integral values without an exponent (the common
// case for counters) and everything else in compact float form.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
