package minisim

import (
	"testing"

	"krr/internal/mrc"
	"krr/internal/simulator"
	"krr/internal/trace"
	"krr/internal/workload"
)

func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{Rate: 0.1, K: 5},                      // no sizes
		{Sizes: []uint64{10}, Rate: 0, K: 5},   // bad rate
		{Sizes: []uint64{10}, Rate: 1.5, K: 5}, // bad rate
		{Sizes: []uint64{10}, Rate: 0.1, K: 0}, // bad K
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}

func TestMiniCapacityFloor(t *testing.T) {
	if got := miniCapacity(3, 0.01); got != 1 {
		t.Fatalf("tiny size must floor to 1, got %d", got)
	}
	if got := miniCapacity(10000, 0.01); got != 100 {
		t.Fatalf("mini capacity = %d, want 100", got)
	}
}

// replay runs every request of tr through s.
func replay(s *Sim, tr *trace.Trace) {
	for _, req := range tr.Reqs {
		s.Process(req)
	}
}

func TestMatchesFullKLRUSimulation(t *testing.T) {
	// The miniature emulation at R=0.2 must track the full-scale
	// simulated K-LRU curve.
	g := workload.NewMSRLike(3, workload.MSRParams{
		Blocks: 20000, HotWeight: 0.5, SeqWeight: 0.3, LoopWeight: 0.2,
		LoopLen: 6000, LoopRepeats: 2,
	})
	tr, _ := trace.Collect(g, 300000)
	sizes := mrc.EvenSizes(20000, 10)
	const k = 5

	sim, err := New(Config{Sizes: sizes, Rate: 0.2, K: k, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	replay(sim, tr)
	mini := sim.MRC()

	full, err := simulator.KLRUMRC(tr, k, sizes, 11, 0)
	if err != nil {
		t.Fatal(err)
	}
	if mae := mrc.MAE(mini, full, sizes); mae > 0.04 {
		t.Fatalf("miniature vs full simulation MAE %v", mae)
	}
}

func TestRateOneIsExact(t *testing.T) {
	// R = 1 degenerates to plain multi-size simulation.
	g := workload.NewZipf(5, 2000, 1.0, nil, 0)
	tr, _ := trace.Collect(g, 40000)
	sizes := mrc.EvenSizes(2000, 5)
	sim, err := New(Config{Sizes: sizes, Rate: 1, K: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	replay(sim, tr)
	full, _ := simulator.KLRUMRC(tr, 3, sizes, 2, 0)
	if mae := mrc.MAE(sim.MRC(), full, sizes); mae > 0.02 {
		t.Fatalf("rate-1 minisim MAE %v", mae)
	}
}

func TestEmptyStreamAllMiss(t *testing.T) {
	sim, _ := New(Config{Sizes: []uint64{100}, Rate: 0.5, K: 2, Seed: 1})
	c := sim.MRC()
	if c.Eval(100) != 1 {
		t.Fatal("no data must mean all-miss")
	}
}

// TestSimCurveHasOnePointPerSize: the curve carries one breakpoint per
// configured size.
func TestSimCurveHasOnePointPerSize(t *testing.T) {
	sizes := mrc.EvenSizes(2000, 5)
	sim, err := New(Config{Sizes: sizes, Rate: 0.5, K: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p, ok := workload.ByName("zipf")
	if !ok {
		t.Fatal("missing zipf preset")
	}
	tr, _ := trace.Collect(p.New(0.02, 3, false), 30000)
	replay(sim, tr)
	if sim.MRC().Len() != len(sizes) {
		t.Fatal("minisim curve malformed")
	}
}

func TestDeletePropagates(t *testing.T) {
	sim, _ := New(Config{Sizes: []uint64{100}, Rate: 1, K: 2, Seed: 1})
	sim.Process(trace.Request{Key: 1, Size: 1, Op: trace.OpGet})
	sim.Process(trace.Request{Key: 1, Op: trace.OpDelete})
	sim.Process(trace.Request{Key: 1, Size: 1, Op: trace.OpGet})
	if sim.misses[0] != 2 {
		t.Fatalf("misses = %d, want 2 (delete forgets)", sim.misses[0])
	}
}

func BenchmarkProcess20Sizes(b *testing.B) {
	sizes := mrc.EvenSizes(1<<20, 20)
	sim, _ := New(Config{Sizes: sizes, Rate: 0.01, K: 5, Seed: 1})
	g := workload.NewZipf(3, 1<<20, 1.0, nil, 0)
	reqs := make([]trace.Request, 1<<16)
	for i := range reqs {
		reqs[i], _ = g.Next()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Process(reqs[i&(1<<16-1)])
	}
}
