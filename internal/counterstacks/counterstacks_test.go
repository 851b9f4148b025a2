package counterstacks

import (
	"math"
	"testing"

	"krr/internal/hashing"
	"krr/internal/hll"
	"krr/internal/trace"
	"krr/internal/workload"
)

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
	if s.Counters() != 1 {
		t.Fatal("must start with the permanent oldest counter")
	}
}

func TestLoopTrace(t *testing.T) {
	// Loop over M: all reuse distances M; the curve must be high below
	// M and low at/above it.
	const m = 2000
	s := New(Config{DownsampleInterval: 200})
	g := workload.NewLoop(m, nil)
	if err := s.ProcessAll(trace.LimitReader(g, m*15)); err != nil {
		t.Fatal(err)
	}
	c := s.MRC()
	if lo := c.Eval(m / 3); lo < 0.7 {
		t.Fatalf("miss(M/3) = %v, want high", lo)
	}
	if hi := c.Eval(m * 2); hi > 0.3 {
		t.Fatalf("miss(2M) = %v, want low", hi)
	}
}

func TestPruningBoundsCounters(t *testing.T) {
	s := New(Config{DownsampleInterval: 100, MaxCounters: 8})
	g := workload.NewZipf(5, 5000, 1.0, nil, 0)
	if err := s.ProcessAll(trace.LimitReader(g, 50000)); err != nil {
		t.Fatal(err)
	}
	if s.Counters() > 8 {
		t.Fatalf("counters %d exceed cap", s.Counters())
	}
	if s.Seen() != 50000 {
		t.Fatalf("seen %d", s.Seen())
	}
}

func TestDeleteIgnored(t *testing.T) {
	s := New(Config{DownsampleInterval: 10})
	s.Process(trace.Request{Key: 1, Op: trace.OpDelete})
	if s.Seen() != 0 {
		t.Fatal("deletes must not count as references")
	}
}

func TestPartialBatchFlushed(t *testing.T) {
	s := New(Config{DownsampleInterval: 1000})
	tr := &trace.Trace{}
	for i := 0; i < 150; i++ {
		tr.Append(trace.Request{Key: uint64(i % 10), Size: 1})
	}
	if err := s.ProcessAll(tr.Reader()); err != nil {
		t.Fatal(err)
	}
	c := s.MRC()
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
