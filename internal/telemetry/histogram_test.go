package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestHistogramObserveAndQuantile(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4, 8})
	if h.Quantile(0.5) != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", h.Quantile(0.5))
	}
	// 100 observations uniform over (0, 8]: 0.08, 0.16, ..., 8.0.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) * 0.08)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d, want 100", h.Count())
	}
	wantSum := 0.0
	for i := 1; i <= 100; i++ {
		wantSum += float64(i) * 0.08
	}
	if math.Abs(h.Sum()-wantSum) > 1e-9 {
		t.Fatalf("sum = %v, want %v", h.Sum(), wantSum)
	}
	// True median is 4.04; interpolation within the (2,4] bucket puts
	// the estimate at its upper edge, and p99 lands in (4,8].
	if q := h.Quantile(0.5); math.Abs(q-4.0) > 0.2 {
		t.Fatalf("p50 = %v, want ~4.0", q)
	}
	if q := h.Quantile(0.99); q < 4 || q > 8 {
		t.Fatalf("p99 = %v, want in (4, 8]", q)
	}
	// Everything past the last bound clamps to it.
	h2 := NewHistogram([]float64{1})
	h2.Observe(50)
	if q := h2.Quantile(0.99); q != 1 {
		t.Fatalf("overflow quantile = %v, want clamp to 1", q)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(ExpBuckets(1e-6, 4, 10))
	var wg sync.WaitGroup
	const per = 10000
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(i%100) * 1e-5)
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != 4*per {
		t.Fatalf("count = %d, want %d", h.Count(), 4*per)
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
	}
	if cum != 4*per {
		t.Fatalf("bucket sum = %d, want %d", cum, 4*per)
	}
}

func TestHistogramExposition(t *testing.T) {
	set := NewSet()
	h := set.Histogram("ingest_latency_seconds", "per-frame ingest latency", []float64{0.001, 0.01})
	h.Observe(0.0005)
	h.Observe(0.005)
	h.Observe(5)

	var b strings.Builder
	if err := set.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE ingest_latency_seconds histogram",
		`ingest_latency_seconds_bucket{le="0.001"} 1`,
		`ingest_latency_seconds_bucket{le="0.01"} 2`,
		`ingest_latency_seconds_bucket{le="+Inf"} 3`,
		"ingest_latency_seconds_sum 5.0055",
		"ingest_latency_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}

	// Labeled exposition composes the le label with the label set.
	b.Reset()
	if err := set.WritePrometheusLabeled(&b, `tenant="t1"`, nil); err != nil {
		t.Fatal(err)
	}
	out = b.String()
	for _, want := range []string{
		`ingest_latency_seconds_bucket{tenant="t1",le="0.001"} 1`,
		`ingest_latency_seconds_sum{tenant="t1"} 5.0055`,
		`ingest_latency_seconds_count{tenant="t1"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("labeled exposition missing %q:\n%s", want, out)
		}
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1e-6, 10, 4)
	want := []float64{1e-6, 1e-5, 1e-4, 1e-3}
	for i := range want {
		if math.Abs(b[i]-want[i])/want[i] > 1e-12 {
			t.Fatalf("bucket %d = %v, want %v", i, b[i], want[i])
		}
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram(ExpBuckets(1e-6, 2, 20))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%1000) * 1e-6)
	}
}
