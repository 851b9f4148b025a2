package mimir

import (
	"testing"

	"krr/internal/mrc"
	"krr/internal/trace"
	"krr/internal/workload"
	"krr/internal/xrand"
)

func TestColdThenHit(t *testing.T) {
	s := New(8)
	if _, cold := s.Reference(1); !cold {
		t.Fatal("first touch must be cold")
	}
	d, cold := s.Reference(1)
	if cold {
		t.Fatal("second touch must hit")
	}
	if d == 0 || d > 2 {
		t.Fatalf("immediate reuse distance %d", d)
	}
}

func TestBucketBudgetRespected(t *testing.T) {
	s := New(16)
	src := xrand.New(3)
	for i := 0; i < 50000; i++ {
		s.Reference(src.Uint64n(5000))
	}
	if len(s.counts) > 16 {
		t.Fatalf("buckets %d exceed budget", len(s.counts))
	}
	if len(s.pos) > 5000 {
		t.Fatalf("tracked %d objects", len(s.pos))
	}
	// Population conservation: bucket counts sum to tracked objects.
	var sum uint64
	for _, c := range s.counts {
		sum += c
	}
	if sum != uint64(len(s.pos)) {
		t.Fatalf("bucket counts %d != tracked %d", sum, len(s.pos))
	}
}

func TestLoopTrace(t *testing.T) {
	const m = 5000
	s := New(DefaultBuckets)
	tr, _ := trace.Collect(workload.NewLoop(m, nil), m*10)
	for _, req := range tr.Reqs {
		s.Process(req)
	}
	c := mrc.FromHistogram(s.Hist(), 1)
	if c.Eval(m/2) < 0.9 {
		t.Fatalf("miss(M/2) = %v", c.Eval(m/2))
	}
	if c.Eval(m+m/8) > 0.15 {
		t.Fatalf("miss beyond loop = %v", c.Eval(m+m/8))
	}
}

func TestDelete(t *testing.T) {
	s := New(8)
	s.Reference(1)
	if !s.Delete(1) || s.Delete(1) {
		t.Fatal("delete semantics")
	}
	if len(s.pos) != 0 {
		t.Fatal("object not removed")
	}
	if _, cold := s.Reference(1); !cold {
		t.Fatal("re-reference after delete must be cold")
	}
}

func TestDefaultBuckets(t *testing.T) {
	if New(0).maxBuckets != DefaultBuckets {
		t.Fatal("default not applied")
	}
}

func TestProcessDeleteOp(t *testing.T) {
	s := New(8)
	s.Process(trace.Request{Key: 1, Op: trace.OpGet})
	s.Process(trace.Request{Key: 1, Op: trace.OpDelete})
	s.Process(trace.Request{Key: 1, Op: trace.OpGet})
	if s.Hist().Cold() != 2 {
		t.Fatalf("cold = %d", s.Hist().Cold())
	}
}

func BenchmarkReference(b *testing.B) {
	s := New(DefaultBuckets)
	g := workload.NewZipf(3, 1<<18, 1.0, nil, 0)
	keys := make([]uint64, 1<<16)
	for i := range keys {
		r, _ := g.Next()
		keys[i] = r.Key
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Reference(keys[i&(1<<16-1)])
	}
}
