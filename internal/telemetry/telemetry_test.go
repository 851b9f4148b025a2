package telemetry

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Load() != 5 {
		t.Fatalf("counter = %d, want 5", c.Load())
	}
	var g Gauge
	g.Set(7)
	g.Add(-3)
	if g.Load() != 4 {
		t.Fatalf("gauge = %d, want 4", g.Load())
	}
}

func TestSetPrometheusOutput(t *testing.T) {
	s := NewSet()
	c := s.Counter("reqs_total", "requests seen")
	c.Add(42)
	g := s.Gauge("queue_depth", "in-flight batches")
	g.Set(3)
	s.GaugeFunc("fill_avg", "average batch fill", func() float64 { return 1.5 })

	var b strings.Builder
	if err := s.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP reqs_total requests seen",
		"# TYPE reqs_total counter",
		"reqs_total 42",
		"# TYPE queue_depth gauge",
		"queue_depth 3",
		"fill_avg 1.5",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// Registration order is preserved.
	if strings.Index(out, "reqs_total") > strings.Index(out, "queue_depth") {
		t.Fatal("metrics out of registration order")
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	s := NewSet()
	s.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate name")
		}
	}()
	s.Gauge("x", "")
}

// TestConcurrentReadsAndWrites drives writers against exposition under
// the race detector.
func TestConcurrentReadsAndWrites(t *testing.T) {
	s := NewSet()
	c := s.Counter("hits", "")
	g := s.Gauge("len", "")
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 10000; i++ {
			c.Inc()
			g.Set(int64(i))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			var b strings.Builder
			if err := s.WritePrometheus(&b); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if c.Load() != 10000 {
		t.Fatalf("hits = %d, want 10000", c.Load())
	}
}
