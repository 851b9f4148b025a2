package simulator

import (
	"math"
	"testing"

	"krr/internal/model"
	"krr/internal/mrc"
	"krr/internal/trace"
	"krr/internal/workload"
	"krr/internal/xrand"
)

func TestLRUBasicBehaviour(t *testing.T) {
	c := NewLRU(ObjectCapacity(2))
	r := func(k uint64) bool { return c.Access(trace.Request{Key: k, Size: 1}) }
	if r(1) || r(2) {
		t.Fatal("cold accesses must miss")
	}
	if !r(1) {
		t.Fatal("resident key must hit")
	}
	// Insert 3: evicts LRU key 2 (1 was just touched).
	if r(3) {
		t.Fatal("new key must miss")
	}
	if r(2) {
		t.Fatal("key 2 must have been evicted")
	}
	// Now 2 and 3 resident, 1 evicted.
	if r(1) {
		t.Fatal("key 1 must have been evicted")
	}
}

func TestLRUMatchesOlkenProfilerExactly(t *testing.T) {
	// A simulated LRU cache of size C hits exactly the references with
	// stack distance <= C — so the per-size simulation must agree with
	// the one-pass Olken curve at every size.
	g := workload.NewMSRLike(3, workload.MSRParams{
		Blocks: 2000, HotWeight: 0.5, SeqWeight: 0.3, LoopWeight: 0.2,
		LoopLen: 500, LoopRepeats: 2,
	})
	tr, _ := trace.Collect(g, 30000)

	m, err := model.New("olken", model.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := model.ProcessAll(m, tr.Reader()); err != nil {
		t.Fatal(err)
	}
	exact := m.Snapshot().Object

	for _, size := range []uint64{10, 50, 200, 1000, 1900} {
		st, err := Run(NewLRU(ObjectCapacity(int(size))), tr.Reader())
		if err != nil {
			t.Fatal(err)
		}
		if got, want := st.MissRatio(), exact.Eval(size); math.Abs(got-want) > 1e-12 {
			t.Fatalf("size %d: simulated %v, olken %v", size, got, want)
		}
	}
}

func TestKLRULargeKApproachesLRU(t *testing.T) {
	g := workload.NewZipf(5, 3000, 0.9, nil, 0)
	tr, _ := trace.Collect(g, 60000)
	const cap = 500
	lru, err := Run(NewLRU(ObjectCapacity(cap)), tr.Reader())
	if err != nil {
		t.Fatal(err)
	}
	k64, err := Run(NewKLRU(ObjectCapacity(cap), 64, true, 7), tr.Reader())
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(lru.MissRatio() - k64.MissRatio()); diff > 0.02 {
		t.Fatalf("K=64 miss %v vs LRU %v: diff %v too large", k64.MissRatio(), lru.MissRatio(), diff)
	}
}

func TestKLRUOrderingByK(t *testing.T) {
	// On a loop trace LRU misses everything below the loop length but
	// random replacement (K=1) retains a useful fraction: miss ratio
	// at half the loop size must increase with K.
	g := workload.NewLoop(1000, nil)
	tr, _ := trace.Collect(g, 50000)
	miss := map[int]float64{}
	for _, k := range []int{1, 4, 32} {
		st, err := Run(NewKLRU(ObjectCapacity(500), k, true, 11), tr.Reader())
		if err != nil {
			t.Fatal(err)
		}
		miss[k] = st.MissRatio()
	}
	if !(miss[1] < miss[4] && miss[4] < miss[32]) {
		t.Fatalf("loop miss ratios not ordered by K: %v", miss)
	}
	lru, _ := Run(NewLRU(ObjectCapacity(500)), tr.Reader())
	if lru.MissRatio() < miss[32] {
		t.Fatalf("LRU (%v) must be the K->inf limit above K=32 (%v)", lru.MissRatio(), miss[32])
	}
}

// evictionFrequencies runs repeated single-eviction trials on a fresh
// cache of capacity cap and returns how often each recency rank
// (1 = most recent) was evicted.
func evictionFrequencies(t *testing.T, cap, k int, withReplacement bool, trials int) []float64 {
	t.Helper()
	counts := make([]int, cap+1)
	for trial := 0; trial < trials; trial++ {
		c := NewKLRU(ObjectCapacity(cap), k, withReplacement, uint64(trial)*2654435761+1)
		for key := uint64(1); key <= uint64(cap); key++ {
			c.Access(trace.Request{Key: key, Size: 1})
		}
		c.Access(trace.Request{Key: uint64(cap) + 1, Size: 1}) // forces one eviction
		for key := uint64(1); key <= uint64(cap); key++ {
			if !c.Contains(key) {
				rank := cap + 1 - int(key) // key cap is rank 1
				counts[rank]++
				break
			}
		}
	}
	freq := make([]float64, cap+1)
	for d := 1; d <= cap; d++ {
		freq[d] = float64(counts[d]) / float64(trials)
	}
	return freq
}

func TestProposition1EvictionProbability(t *testing.T) {
	// With placing back: Q(d) = (d^K - (d-1)^K) / C^K.
	const cap, k, trials = 10, 3, 60000
	freq := evictionFrequencies(t, cap, k, true, trials)
	ck := math.Pow(cap, k)
	for d := 1; d <= cap; d++ {
		want := (math.Pow(float64(d), k) - math.Pow(float64(d-1), k)) / ck
		if math.Abs(freq[d]-want) > 0.01 {
			t.Fatalf("rank %d: empirical %v, Proposition 1 %v", d, freq[d], want)
		}
	}
}

func TestProposition2EvictionProbability(t *testing.T) {
	// Without placing back: ranks below K are never evicted and
	// Q(d) = C(d-1,K-1)/C(C,K).
	const cap, k, trials = 10, 3, 60000
	freq := evictionFrequencies(t, cap, k, false, trials)
	binom := func(n, r int) float64 {
		if r < 0 || r > n {
			return 0
		}
		out := 1.0
		for i := 0; i < r; i++ {
			out = out * float64(n-i) / float64(i+1)
		}
		return out
	}
	for d := 1; d <= cap; d++ {
		want := binom(d-1, k-1) / binom(cap, k)
		if d < k && freq[d] != 0 {
			t.Fatalf("rank %d < K must never be evicted, got %v", d, freq[d])
		}
		if math.Abs(freq[d]-want) > 0.01 {
			t.Fatalf("rank %d: empirical %v, Proposition 2 %v", d, freq[d], want)
		}
	}
}

func TestKLRUByteCapacity(t *testing.T) {
	c := NewKLRU(ByteCapacity(1000), 5, true, 1)
	src := xrand.New(2)
	for i := 0; i < 10000; i++ {
		c.Access(trace.Request{Key: src.Uint64n(500), Size: uint32(1 + src.Uint64n(300))})
		if c.UsedBytes() > 1000 {
			t.Fatalf("step %d: used %d exceeds capacity", i, c.UsedBytes())
		}
	}
	if c.Len() == 0 {
		t.Fatal("cache ended empty")
	}
}

func TestOversizedObjectBypasses(t *testing.T) {
	for _, c := range []Cache{
		NewKLRU(ByteCapacity(100), 5, true, 1),
		NewLRU(ByteCapacity(100)),
	} {
		if c.Access(trace.Request{Key: 1, Size: 500}) {
			t.Fatal("oversized insert cannot hit")
		}
		if c.Len() != 0 {
			t.Fatal("oversized object must bypass the cache")
		}
	}
}

func TestSizeGrowthTriggersEviction(t *testing.T) {
	c := NewLRU(ByteCapacity(100))
	c.Access(trace.Request{Key: 1, Size: 40})
	c.Access(trace.Request{Key: 2, Size: 40})
	// Grow key 2 to 90: key 1 must be evicted.
	if !c.Access(trace.Request{Key: 2, Size: 90}) {
		t.Fatal("resident key must hit on size change")
	}
	if c.Contains(1) {
		t.Fatal("growth must evict the LRU entry")
	}
	if c.UsedBytes() != 90 {
		t.Fatalf("used = %d", c.UsedBytes())
	}
}

func TestDeleteSemantics(t *testing.T) {
	for _, c := range []Cache{
		NewKLRU(ObjectCapacity(10), 3, true, 1),
		NewLRU(ObjectCapacity(10)),
	} {
		c.Access(trace.Request{Key: 1, Size: 1})
		if c.Access(trace.Request{Key: 1, Op: trace.OpDelete}) {
			t.Fatal("delete must not report a hit")
		}
		if c.Len() != 0 {
			t.Fatal("delete must remove the object")
		}
		if c.Access(trace.Request{Key: 1, Size: 1}) {
			t.Fatal("re-access after delete must miss")
		}
	}
}

func TestStatsMissRatio(t *testing.T) {
	if (Stats{}).MissRatio() != 1 {
		t.Fatal("empty stats must report miss ratio 1")
	}
	s := Stats{Hits: 3, Misses: 1}
	if s.MissRatio() != 0.25 {
		t.Fatalf("miss ratio %v", s.MissRatio())
	}
}

func TestRunCountsDeletesSeparately(t *testing.T) {
	tr := &trace.Trace{Reqs: []trace.Request{
		{Key: 1, Size: 1, Op: trace.OpGet},
		{Key: 1, Size: 1, Op: trace.OpDelete},
		{Key: 1, Size: 1, Op: trace.OpGet},
	}}
	st, err := Run(NewLRU(ObjectCapacity(4)), tr.Reader())
	if err != nil {
		t.Fatal(err)
	}
	if st.Hits != 0 || st.Misses != 2 {
		t.Fatalf("stats %+v: deletes must not be counted", st)
	}
}

func TestMRCParallelSweep(t *testing.T) {
	g := workload.NewZipf(9, 2000, 1.0, nil, 0)
	tr, _ := trace.Collect(g, 40000)
	sizes := mrc.EvenSizes(2000, 10)
	curve, err := KLRUMRC(tr, 5, sizes, 13, 4)
	if err != nil {
		t.Fatal(err)
	}
	if curve.Len() != len(sizes) {
		t.Fatalf("curve has %d points, want %d", curve.Len(), len(sizes))
	}
	// Roughly monotone: allow small simulation noise.
	for i := 1; i < curve.Len(); i++ {
		if curve.Miss[i] > curve.Miss[i-1]+0.03 {
			t.Fatalf("curve strongly non-monotone at %d: %v -> %v", i, curve.Miss[i-1], curve.Miss[i])
		}
	}
	if curve.Miss[0] <= curve.Miss[curve.Len()-1] {
		t.Fatal("bigger caches must miss less")
	}
}

func TestCapacityValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { NewLRU(Capacity{}) },
		func() { NewLRU(Capacity{Objects: 1, Bytes: 1}) },
		func() { NewKLRU(ObjectCapacity(1), 0, true, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestKLRUWithoutReplacementFullScanPath(t *testing.T) {
	// k >= resident count exercises the full-scan fallback and must
	// evict the exact LRU victim.
	c := NewKLRU(ObjectCapacity(3), 10, false, 1)
	for k := uint64(1); k <= 3; k++ {
		c.Access(trace.Request{Key: k, Size: 1})
	}
	c.Access(trace.Request{Key: 4, Size: 1})
	if c.Contains(1) {
		t.Fatal("k >= n must evict the global LRU (key 1)")
	}
}

func BenchmarkKLRUAccess(b *testing.B) {
	c := NewKLRU(ObjectCapacity(1<<14), 5, true, 1)
	g := workload.NewZipf(3, 1<<16, 1.0, nil, 0)
	reqs := make([]trace.Request, 1<<16)
	for i := range reqs {
		reqs[i], _ = g.Next()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(reqs[i&(1<<16-1)])
	}
}

func BenchmarkLRUAccess(b *testing.B) {
	c := NewLRU(ObjectCapacity(1 << 14))
	g := workload.NewZipf(3, 1<<16, 1.0, nil, 0)
	reqs := make([]trace.Request, 1<<16)
	for i := range reqs {
		reqs[i], _ = g.Next()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(reqs[i&(1<<16-1)])
	}
}
