package counterstacks

import (
	"math"
	"testing"

	"krr/internal/hashing"
	"krr/internal/hll"
	"krr/internal/mrc"
	"krr/internal/trace"
	"krr/internal/workload"
)

// replay runs every request of tr through s and returns the curve,
// with any final partial batch evaluated.
func replay(s *Stack, tr *trace.Trace) *mrc.Curve {
	for _, req := range tr.Reqs {
		s.Process(req)
	}
	return mrc.FromHistogram(s.SnapshotHist(), 1)
}

func TestHLLAccuracy(t *testing.T) {
	for _, n := range []int{100, 10_000, 500_000} {
		h := hll.New(hllPrecision)
		for i := 0; i < n; i++ {
			h.Add(hashing.Mix64(uint64(i)))
		}
		got := h.Estimate()
		if relErr := math.Abs(got-float64(n)) / float64(n); relErr > 0.05 {
			t.Fatalf("n=%d: estimate %.0f, rel err %.3f", n, got, relErr)
		}
	}
}

func TestHLLDuplicatesDontCount(t *testing.T) {
	h := hll.New(hllPrecision)
	for i := 0; i < 100_000; i++ {
		h.Add(hashing.Mix64(uint64(i % 50)))
	}
	if got := h.Estimate(); got > 80 {
		t.Fatalf("50 distinct keys estimated as %.0f", got)
	}
}

func TestHLLMerge(t *testing.T) {
	a, b := hll.New(hllPrecision), hll.New(hllPrecision)
	for i := 0; i < 1000; i++ {
		a.Add(hashing.Mix64(uint64(i)))
		b.Add(hashing.Mix64(uint64(i + 1000)))
	}
	a.Merge(b)
	if got := a.Estimate(); math.Abs(got-2000) > 150 {
		t.Fatalf("merged estimate %.0f, want ~2000", got)
	}
}

func TestConfigDefaults(t *testing.T) {
	s := New(Config{})
	if s.cfg.DownsampleInterval != 1000 || s.cfg.MaxCounters != 64 {
		t.Fatalf("defaults: %+v", s.cfg)
	}
	if len(s.counters) != 1 {
		t.Fatal("must start with the permanent oldest counter")
	}
}

func TestLoopTrace(t *testing.T) {
	// Loop over M: all reuse distances M; the curve must be high below
	// M and low at/above it.
	const m = 2000
	s := New(Config{DownsampleInterval: 200})
	tr, _ := trace.Collect(workload.NewLoop(m, nil), m*15)
	c := replay(s, tr)
	if lo := c.Eval(m / 3); lo < 0.7 {
		t.Fatalf("miss(M/3) = %v, want high", lo)
	}
	if hi := c.Eval(m * 2); hi > 0.3 {
		t.Fatalf("miss(2M) = %v, want low", hi)
	}
}

func TestPruningBoundsCounters(t *testing.T) {
	s := New(Config{DownsampleInterval: 100, MaxCounters: 8})
	tr, _ := trace.Collect(workload.NewZipf(5, 5000, 1.0, nil, 0), 50000)
	replay(s, tr)
	if len(s.counters) > 8 {
		t.Fatalf("counters %d exceed cap", len(s.counters))
	}
	// 50000 references fill their 100-request batches exactly.
	if s.pending != 0 {
		t.Fatalf("%d requests left pending", s.pending)
	}
}

func TestDeleteIgnored(t *testing.T) {
	s := New(Config{DownsampleInterval: 10})
	s.Process(trace.Request{Key: 1, Op: trace.OpDelete})
	if s.pending != 0 {
		t.Fatal("deletes must not count as references")
	}
}

func TestPartialBatchFlushed(t *testing.T) {
	s := New(Config{DownsampleInterval: 1000})
	tr := &trace.Trace{}
	for i := 0; i < 150; i++ {
		tr.Append(trace.Request{Key: uint64(i % 10), Size: 1})
	}
	c := replay(s, tr)
	// 10 distinct keys referenced 15× each: the curve must show hits
	// at small sizes.
	if c.Eval(50) > 0.5 {
		t.Fatalf("partial batch lost: miss(50) = %v", c.Eval(50))
	}
}

func BenchmarkProcess(b *testing.B) {
	s := New(Config{DownsampleInterval: 1000, MaxCounters: 64})
	g := workload.NewZipf(3, 1<<20, 1.0, nil, 0)
	reqs := make([]trace.Request, 1<<16)
	for i := range reqs {
		reqs[i], _ = g.Next()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Process(reqs[i&(1<<16-1)])
	}
}
