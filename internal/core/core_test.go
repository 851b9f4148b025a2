package core

import (
	"math"
	"testing"
	"testing/quick"

	"krr/internal/histogram"
	"krr/internal/mrc"
	"krr/internal/olken"
	"krr/internal/trace"
	"krr/internal/workload"
	"krr/internal/xrand"
)

func TestKPrimeFor(t *testing.T) {
	if KPrimeFor(1) != 1 {
		t.Fatal("K=1 must stay 1 (RR is exact)")
	}
	if KPrimeFor(0) != 1 || KPrimeFor(-2) != 1 {
		t.Fatal("degenerate K must clamp to 1")
	}
	if got := KPrimeFor(5); math.Abs(got-math.Pow(5, 1.4)) > 1e-12 {
		t.Fatalf("K'=%v", got)
	}
}

func TestMethodStrings(t *testing.T) {
	if Backward.String() != "backward" || TopDown.String() != "topdown" || Linear.String() != "linear" {
		t.Fatal("method names wrong")
	}
	if UpdateMethod(9).String() != "method?" {
		t.Fatal("unknown method must stringify safely")
	}
}

func TestNewStackPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewStack(0, 1)
}

// fillStack references keys 1..n once so the stack holds n objects
// in known order (key n on top).
func fillStack(s *Stack, n int) {
	for k := uint64(1); k <= uint64(n); k++ {
		s.Reference(k, 1)
	}
}

func TestChainStructure(t *testing.T) {
	// Every sampler must emit a strictly ascending chain from 1 to φ.
	for _, m := range []UpdateMethod{Backward, TopDown, Linear} {
		s := NewStack(3.2, 42, WithMethod(m))
		fillStack(s, 200)
		for trial := 0; trial < 500; trial++ {
			phi := int32(2 + trial%199)
			switch m {
			case Backward:
				s.buildChainBackward(phi)
			case TopDown:
				s.buildChainTopDown(phi)
			default:
				s.buildChainLinear(phi)
			}
			c := s.chain
			if c[0] != 1 || c[len(c)-1] != phi {
				t.Fatalf("%v: chain endpoints %v for phi=%d", m, c, phi)
			}
			for i := 1; i < len(c); i++ {
				if c[i] <= c[i-1] {
					t.Fatalf("%v: chain not ascending: %v", m, c)
				}
			}
		}
	}
}

func TestSwapMarginalsMatchEquation41(t *testing.T) {
	// Each interior position i must appear in the chain with
	// probability 1 - ((i-1)/i)^K, identically for all three samplers.
	const phi, k, trials = 40, 4.0, 40000
	for _, m := range []UpdateMethod{Backward, TopDown, Linear} {
		s := NewStack(k, 7, WithMethod(m))
		fillStack(s, phi)
		counts := make([]int, phi+1)
		for trial := 0; trial < trials; trial++ {
			switch m {
			case Backward:
				s.buildChainBackward(phi)
			case TopDown:
				s.buildChainTopDown(phi)
			default:
				s.buildChainLinear(phi)
			}
			for _, v := range s.chain {
				counts[v]++
			}
		}
		for i := 2; i < phi; i++ {
			want := 1 - math.Pow(float64(i-1)/float64(i), k)
			got := float64(counts[i]) / trials
			if math.Abs(got-want) > 0.012 {
				t.Fatalf("%v: position %d swap freq %v, want %v", m, i, got, want)
			}
		}
		if counts[1] != trials || counts[phi] != trials {
			t.Fatalf("%v: endpoints must always be in the chain", m)
		}
	}
}

func TestExpectedSwapCountIsKLogM(t *testing.T) {
	// Corollary 1: E[β] = sum_{i=2}^{φ-1} 1-((i-1)/i)^K ≈ K ln φ.
	const phi = 1000
	for _, k := range []float64{1, 2, 5} {
		s := NewStack(k, 3, WithMethod(Backward))
		fillStack(s, phi)
		const trials = 3000
		var total int
		for i := 0; i < trials; i++ {
			s.buildChainBackward(phi)
			total += len(s.chain) - 2
		}
		got := float64(total) / trials
		var want float64
		for i := 2; i < phi; i++ {
			want += 1 - math.Pow(float64(i-1)/float64(i), k)
		}
		if math.Abs(got-want) > 0.15*want+0.5 {
			t.Fatalf("k=%v: mean swaps %v, analytic %v", k, got, want)
		}
	}
}

func TestHugeKBehavesLikeLRU(t *testing.T) {
	// With an enormous exponent every position swaps, so distances
	// must equal the exact LRU stack distances reference by reference.
	for _, m := range []UpdateMethod{Backward, TopDown, Linear} {
		s := NewStack(1e7, 1, WithMethod(m))
		oracle := olken.New(9)
		src := xrand.New(31)
		for i := 0; i < 5000; i++ {
			key := src.Uint64n(500)
			want := oracle.Reference(key, 1)
			got := s.Reference(key, 1)
			if got.Cold != want.Cold {
				t.Fatalf("%v step %d: cold mismatch", m, i)
			}
			if !got.Cold && got.Distance != want.Distance {
				t.Fatalf("%v step %d: dist %d, LRU %d", m, i, got.Distance, want.Distance)
			}
		}
	}
}

func TestKRRK1IsRandomReplacement(t *testing.T) {
	// At K′ = 1 the stack is Mattson's RR stack, which evicts
	// uniformly: each resident of a size-C cache leaves with
	// probability 1/C. On a uniform workload over M objects the miss
	// ratio at size C therefore approaches 1 - C/M.
	const m, c = 400, 100
	tr, _ := trace.Collect(workload.NewUniform(3, m, nil), 150000)
	want := 1 - float64(c)/float64(m)
	for _, method := range []UpdateMethod{Backward, TopDown, Linear} {
		got := replayCurve(NewStack(KPrimeFor(1), 5, WithMethod(method)), tr).Eval(c)
		if math.Abs(got-want) > 0.03 {
			t.Fatalf("%v: RR uniform miss at C=%d: %v, want ~%v", method, c, got, want)
		}
	}
}

func TestPositionMapStaysPermutation(t *testing.T) {
	err := quick.Check(func(ops []uint16, method uint8) bool {
		s := NewStack(2.7, 5, WithMethod(UpdateMethod(method%3)))
		for _, op := range ops {
			key := uint64(op % 128)
			if op%11 == 0 {
				s.Delete(key)
				continue
			}
			s.Reference(key, uint32(op%50)+1)
		}
		if s.pos.Len() != s.Len() {
			return false
		}
		for i := 1; i <= s.Len(); i++ {
			if s.pos.get(s.keys[i]) != int32(i) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 150})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeleteCompacts(t *testing.T) {
	s := NewStack(1e7, 1) // LRU-like for determinism
	fillStack(s, 5)       // top..bottom: 5 4 3 2 1
	if !s.Delete(3) {
		t.Fatal("resident delete must return true")
	}
	if s.Delete(3) {
		t.Fatal("double delete must return false")
	}
	if s.Len() != 4 || s.PositionOf(1) != 4 {
		t.Fatalf("compaction wrong: len=%d pos(1)=%d", s.Len(), s.PositionOf(1))
	}
	got := s.Reference(1, 1)
	if got.Cold || got.Distance != 4 {
		t.Fatalf("post-delete distance %d", got.Distance)
	}
}

func TestReferenceTopShortCircuit(t *testing.T) {
	s := NewStack(2, 1)
	s.Reference(9, 1)
	before := s.SwapSteps()
	res := s.Reference(9, 1)
	if res.Cold || res.Distance != 1 {
		t.Fatalf("top hit: %+v", res)
	}
	if s.SwapSteps() != before {
		t.Fatal("top hit must not produce swap work")
	}
}

func TestKRRMatchesLinearReferenceMRC(t *testing.T) {
	// The fast samplers and the linear baseline must produce
	// statistically identical MRCs on a real workload.
	g := workload.NewMSRLike(3, workload.MSRParams{
		Blocks: 3000, HotWeight: 0.4, SeqWeight: 0.3, LoopWeight: 0.3,
		LoopLen: 900, LoopRepeats: 3,
	})
	tr, _ := trace.Collect(g, 60000)
	sizes := mrc.EvenSizes(3000, 20)

	curves := map[UpdateMethod]*mrc.Curve{}
	for _, m := range []UpdateMethod{Backward, TopDown, Linear} {
		curves[m] = replayCurve(NewStack(KPrimeFor(4), 11, WithMethod(m)), tr)
	}
	if mae := mrc.MAE(curves[Backward], curves[Linear], sizes); mae > 0.015 {
		t.Fatalf("backward vs linear MAE %v", mae)
	}
	if mae := mrc.MAE(curves[TopDown], curves[Linear], sizes); mae > 0.015 {
		t.Fatalf("topdown vs linear MAE %v", mae)
	}
}

func TestKRRPredictsKLRUSimulation(t *testing.T) {
	// The headline claim (§5.3): KRR's one-pass MRC tracks the
	// simulated K-LRU cache across K.
	g := workload.NewMSRLike(5, workload.MSRParams{
		Blocks: 2500, HotWeight: 0.35, SeqWeight: 0.25, LoopWeight: 0.4,
		HotFraction: 0.1, HotAlpha: 1.0, LoopLen: 1000, LoopRepeats: 3,
	})
	tr, _ := trace.Collect(g, 80000)
	sizes := mrc.EvenSizes(2500, 12)

	for _, k := range []int{1, 4, 16} {
		model := replayCurve(NewStack(KPrimeFor(k), 21), tr)

		truth, err := simulateKLRU(tr, k, sizes)
		if err != nil {
			t.Fatal(err)
		}
		if mae := mrc.MAE(model, truth, sizes); mae > 0.03 {
			t.Fatalf("K=%d: KRR vs simulation MAE %v", k, mae)
		}
	}
}

// distanceStack is the surface Stack and BucketStack share.
type distanceStack interface {
	Reference(key uint64, size uint32) Result
	Delete(key uint64) bool
}

// recordInto drives s over tr the way the krr models do — deletes
// forget, references record their object distance — into hist.
func recordInto(s distanceStack, tr *trace.Trace, hist *histogram.Dense) {
	for _, req := range tr.Reqs {
		if req.Op == trace.OpDelete {
			s.Delete(req.Key)
			continue
		}
		if res := s.Reference(req.Key, req.Size); res.Cold {
			hist.AddCold()
		} else {
			hist.Add(res.Distance)
		}
	}
}

// replayCurve is the object curve of one pass of s over tr.
func replayCurve(s distanceStack, tr *trace.Trace) *mrc.Curve {
	hist := histogram.NewDense(1024)
	recordInto(s, tr, hist)
	return mrc.FromHistogram(hist, 1)
}

// simulateKLRU is a local ground-truth helper (avoids importing the
// simulator package in non-test code paths; the experiments package
// wires the real thing).
func simulateKLRU(tr *trace.Trace, k int, sizes []uint64) (*mrc.Curve, error) {
	miss := make([]float64, len(sizes))
	for i, size := range sizes {
		cache := newTestKLRU(int(size), k, uint64(size)*7+1)
		var hits, total int
		r := tr.Reader()
		for {
			req, err := r.Next()
			if err != nil {
				break
			}
			total++
			if cache.access(req.Key) {
				hits++
			}
		}
		miss[i] = 1 - float64(hits)/float64(total)
	}
	return mrc.FromPoints(sizes, miss), nil
}

type testKLRU struct {
	cap   int
	k     int
	src   *xrand.Source
	keys  []uint64
	last  []uint64
	index map[uint64]int
	clock uint64
}

func newTestKLRU(cap, k int, seed uint64) *testKLRU {
	return &testKLRU{cap: cap, k: k, src: xrand.New(seed), index: make(map[uint64]int)}
}

func (c *testKLRU) access(key uint64) bool {
	c.clock++
	if i, ok := c.index[key]; ok {
		c.last[i] = c.clock
		return true
	}
	if len(c.keys) >= c.cap {
		victim := int(c.src.Uint64n(uint64(len(c.keys))))
		for j := 1; j < c.k; j++ {
			cand := int(c.src.Uint64n(uint64(len(c.keys))))
			if c.last[cand] < c.last[victim] {
				victim = cand
			}
		}
		delete(c.index, c.keys[victim])
		lastIdx := len(c.keys) - 1
		if victim != lastIdx {
			c.keys[victim], c.last[victim] = c.keys[lastIdx], c.last[lastIdx]
			c.index[c.keys[victim]] = victim
		}
		c.keys, c.last = c.keys[:lastIdx], c.last[:lastIdx]
	}
	c.index[key] = len(c.keys)
	c.keys = append(c.keys, key)
	c.last = append(c.last, c.clock)
	return false
}

func TestUniformByteDistance(t *testing.T) {
	s := NewStack(2, 1)
	s.Reference(1, 100)
	s.Reference(2, 300)
	// mean size 200; distance 2 → 400.
	if got := s.UniformByteDistance(2); got != 400 {
		t.Fatalf("uniform byte distance %d, want 400", got)
	}
	empty := NewStack(2, 1)
	if empty.UniformByteDistance(5) != 0 {
		t.Fatal("empty stack must estimate 0")
	}
}

func TestMemoryOverheadAccounting(t *testing.T) {
	s := NewStack(2, 1)
	fillStack(s, 100)
	per := s.MemoryOverheadBytes() / 100
	// Open-addressing index: 12 B array slot + 12 B/index slot at
	// >= 3/8 instantaneous load — well under the paper's ~72 B/object
	// bucketed-map accounting (§5.6), but never below the raw 24 B.
	if per < 24 || per > 60 {
		t.Fatalf("per-object overhead %d bytes, expected ~28-48 with the open-addressing index", per)
	}
}

// TestResetHistogramsKeepsStack pins the contract online windowing
// rests on: the modeled cache state lives in the stack alone, so a
// fresh histogram for the next window records warm distances at once.
func TestResetHistogramsKeepsStack(t *testing.T) {
	s := NewStack(KPrimeFor(4), 1, WithSizeArray())
	g := workload.NewZipf(3, 500, 1.0, nil, 0)
	tr, _ := trace.Collect(g, 10000)
	first := histogram.NewDense(1024)
	recordInto(s, tr, first)
	warmLen := s.Len()
	if first.Total() == 0 {
		t.Fatal("no distances recorded")
	}
	next := histogram.NewDense(1024)
	recordInto(s, tr, next)
	if s.Len() != warmLen {
		t.Fatal("a new window must keep the stack warm")
	}
	if next.Cold() != 0 {
		t.Fatalf("warm stack produced %d cold misses", next.Cold())
	}
}
func TestStatsCounters(t *testing.T) {
	s := NewStack(4, 1)
	fillStack(s, 50)
	if s.Updates() != 50 {
		t.Fatalf("updates = %d", s.Updates())
	}
	before := s.SwapSteps()
	s.Reference(1, 1) // distance 50 — guaranteed interior positions
	if s.Updates() != 51 {
		t.Fatal("update counter")
	}
	_ = before // swaps may be zero for one update; counters checked above
}
