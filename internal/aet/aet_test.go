package aet

import (
	"testing"

	"krr/internal/mrc"
	"krr/internal/trace"
	"krr/internal/workload"
)

// feed runs the first n requests of g through m.
func feed(m *Monitor, g trace.Reader, n int) {
	tr, _ := trace.Collect(g, n)
	for _, req := range tr.Reqs {
		m.Process(req)
	}
}

func TestLoopTraceExact(t *testing.T) {
	// A cyclic loop over M objects has every reuse time equal to M, so
	// AET must reproduce the LRU step: miss ~1 below M, cold-ratio at M.
	const m = 200
	mon := New(0)
	g := workload.NewLoop(m, nil)
	feed(mon, g, m*30)
	c := mon.MRC()
	if got := c.Eval(m / 2); got < 0.9 {
		t.Fatalf("miss(M/2) = %v, want ~1", got)
	}
	if got := c.Eval(m + 1); got > 0.1 {
		t.Fatalf("miss(M) = %v, want ~cold ratio", got)
	}
}

func TestSpatialSamplingClose(t *testing.T) {
	g := workload.NewZipf(7, 50000, 0.7, nil, 0)
	tr, _ := trace.Collect(g, 400000)

	full := New(0)
	sampled := New(0.2)
	var passed uint64
	for _, req := range tr.Reqs {
		full.Process(req)
		if sampled.Process(req) {
			passed++
		}
	}

	if sampled.References() >= full.References() {
		t.Fatal("filter inactive")
	}
	sizes := mrc.EvenSizes(50000, 20)
	if mae := mrc.MAE(full.MRC(), sampled.MRC(), sizes); mae > 0.03 {
		t.Fatalf("sampled vs full AET MAE %v", mae)
	}
	// The trace has no deletes, so every request that passed the filter
	// is a sampled reference.
	if passed != sampled.References() {
		t.Fatalf("Process reported %d passed, monitor holds %d references", passed, sampled.References())
	}
}

func TestDeleteForgets(t *testing.T) {
	mon := New(0)
	mon.Process(trace.Request{Key: 1, Op: trace.OpGet})
	mon.Process(trace.Request{Key: 1, Op: trace.OpDelete})
	mon.Process(trace.Request{Key: 1, Op: trace.OpGet})
	if mon.reuses != 0 || mon.cold != 2 {
		t.Fatalf("reuses=%d cold=%d, delete must forget", mon.reuses, mon.cold)
	}
}

func TestEmptyMonitor(t *testing.T) {
	c := New(0).MRC()
	if c.Eval(100) != 1 {
		t.Fatal("empty monitor must predict all-miss")
	}
}

func TestCurveMonotone(t *testing.T) {
	g := workload.NewTwitterLike(9, workload.TwitterParams{Keys: 5000, Alpha: 1.1})
	mon := New(0)
	feed(mon, g, 100000)
	c := mon.MRC()
	for i := 1; i < c.Len(); i++ {
		if c.Miss[i] > c.Miss[i-1]+1e-12 {
			t.Fatalf("AET curve not monotone at %d", i)
		}
	}
}

func BenchmarkProcess(b *testing.B) {
	mon := New(0.01)
	g := workload.NewZipf(3, 1<<20, 1.0, nil, 0)
	reqs := make([]trace.Request, 1<<16)
	for i := range reqs {
		reqs[i], _ = g.Next()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mon.Process(reqs[i&(1<<16-1)])
	}
}
