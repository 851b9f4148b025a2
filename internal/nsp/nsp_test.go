package nsp

import (
	"sort"
	"testing"

	"krr/internal/histogram"
	"krr/internal/mrc"
	"krr/internal/trace"
	"krr/internal/workload"
	"krr/internal/xrand"
)

// replay runs every request of tr through s and returns its curve.
func replay(s interface {
	Process(trace.Request)
	Hist() *histogram.Dense
}, tr *trace.Trace) *mrc.Curve {
	for _, req := range tr.Reqs {
		s.Process(req)
	}
	return mrc.FromHistogram(s.Hist(), 1)
}

// naiveNSP computes the same distances by brute force: position 1 is
// the previously referenced object, positions 2.. are every other
// seen object sorted by priority descending.
type naiveNSP struct {
	policy Policy
	counts map[uint64]uint64
	prios  map[uint64][2]uint64
	last   uint64
	hasTop bool
	clock  uint64
}

func newNaive(p Policy) *naiveNSP {
	return &naiveNSP{policy: p, counts: map[uint64]uint64{}, prios: map[uint64][2]uint64{}}
}

func (n *naiveNSP) reference(key uint64) (uint64, bool) {
	n.clock++
	count := n.counts[key] + 1
	n.counts[key] = count
	cold := count == 1

	var dist uint64
	if !cold {
		if n.hasTop && key == n.last {
			dist = 1
		} else {
			old := n.prios[key]
			type kp struct {
				k uint64
				p [2]uint64
			}
			var others []kp
			for k, p := range n.prios {
				if k == key || (n.hasTop && k == n.last) {
					continue
				}
				others = append(others, kp{k, p})
			}
			sort.Slice(others, func(i, j int) bool { return less(others[j].p, others[i].p) })
			rank := uint64(0)
			for _, o := range others {
				if less(old, o.p) {
					rank++
				}
			}
			dist = rank + 2
		}
	}
	n.prios[key] = n.policy.Priority(count, n.clock)
	n.last = key
	n.hasTop = true
	return dist, cold
}

func TestAgainstNaive(t *testing.T) {
	for _, policy := range []Policy{LFU{}, MRU{}} {
		s := New(policy, 1)
		ref := newNaive(policy)
		src := xrand.New(7)
		for i := 0; i < 15000; i++ {
			key := src.Uint64n(120)
			wantDist, wantCold := ref.reference(key)
			got := s.Reference(key)
			if got.Cold != wantCold {
				t.Fatalf("%s step %d: cold %v want %v", policy.Name(), i, got.Cold, wantCold)
			}
			if !got.Cold && got.Distance != wantDist {
				t.Fatalf("%s step %d key %d: dist %d want %d", policy.Name(), i, key, got.Distance, wantDist)
			}
		}
	}
}

func TestImmediateRepeatIsOne(t *testing.T) {
	s := New(LFU{}, 1)
	s.Reference(5)
	if got := s.Reference(5); got.Cold || got.Distance != 1 {
		t.Fatalf("repeat: %+v", got)
	}
}

// perfectLFUMiss simulates an exact perfect-LFU cache: on a miss the
// lowest-priority resident (other than the just-fetched object) is
// evicted; frequency history survives eviction.
func perfectLFUMiss(tr *trace.Trace, capObjects int) float64 {
	counts := map[uint64]uint64{}
	prios := map[uint64][2]uint64{}
	resident := map[uint64]bool{}
	var clock uint64
	var hits, total int
	for _, req := range tr.Reqs {
		clock++
		total++
		counts[req.Key]++
		if resident[req.Key] {
			hits++
		} else {
			resident[req.Key] = true
			for len(resident) > capObjects {
				var victim uint64
				first := true
				for k := range resident {
					if k == req.Key {
						continue
					}
					if first || less(prios[k], prios[victim]) {
						victim, first = k, false
					}
				}
				delete(resident, victim)
			}
		}
		prios[req.Key] = LFU{}.Priority(counts[req.Key], clock)
	}
	return 1 - float64(hits)/float64(total)
}

func TestLFUMRCMatchesSimulation(t *testing.T) {
	g := workload.NewZipf(3, 1500, 1.0, nil, 0)
	tr, _ := trace.Collect(g, 40000)

	curve := replay(New(LFU{}, 1), tr)

	for _, c := range []int{100, 400, 800, 1200} {
		sim := perfectLFUMiss(tr, c)
		model := curve.Eval(uint64(c))
		if d := sim - model; d > 0.02 || d < -0.02 {
			t.Fatalf("capacity %d: simulated perfect-LFU %v vs NSP stack %v", c, sim, model)
		}
	}
}

func TestLFUKeepsHotHeadCheap(t *testing.T) {
	// Zipf traffic: LFU's miss ratio at a small cache must be low —
	// the head keys have the highest counts and are never evicted.
	tr, _ := trace.Collect(workload.NewZipf(5, 10000, 1.2, nil, 0), 150000)
	c := replay(New(LFU{}, 1), tr)
	if c.Eval(500) > 0.45 {
		t.Fatalf("LFU miss at 5%% of keys = %v, too high for zipf 1.2", c.Eval(500))
	}
	for i := 1; i < c.Len(); i++ {
		if c.Miss[i] > c.Miss[i-1]+1e-12 {
			t.Fatal("NSP curve must be non-increasing")
		}
	}
}

// perfectMRUMiss simulates an exact MRU cache: on a miss with a full
// cache, the most recently accessed resident (other than the
// just-fetched object) is evicted.
func perfectMRUMiss(tr *trace.Trace, capObjects int) float64 {
	last := map[uint64]uint64{}
	resident := map[uint64]bool{}
	var clock uint64
	var hits, total int
	for _, req := range tr.Reqs {
		clock++
		total++
		if resident[req.Key] {
			hits++
		} else {
			resident[req.Key] = true
			for len(resident) > capObjects {
				var victim uint64
				var best uint64
				first := true
				for k := range resident {
					if k == req.Key {
						continue
					}
					if first || last[k] > best {
						victim, best, first = k, last[k], false
					}
				}
				delete(resident, victim)
			}
		}
		last[req.Key] = clock
	}
	return 1 - float64(hits)/float64(total)
}

func TestMRUMatchesExactSimulation(t *testing.T) {
	// The transposition stack must reproduce exact MRU-cache miss
	// ratios: MRU satisfies inclusion, so distance > c iff the
	// reference misses in a cache of capacity c.
	traces := map[string]*trace.Trace{}
	lg := workload.NewLoop(150, nil)
	traces["loop"], _ = trace.Collect(lg, 3000)
	zg := workload.NewZipf(11, 400, 0.9, nil, 0)
	traces["zipf"], _ = trace.Collect(zg, 5000)
	for name, tr := range traces {
		curve := replay(NewMRU(), tr)
		for _, c := range []int{5, 40, 75, 120, 149} {
			sim := perfectMRUMiss(tr, c)
			model := curve.Eval(uint64(c))
			if d := sim - model; d > 1e-9 || d < -1e-9 {
				t.Errorf("%s capacity %d: simulated MRU %v vs stack %v", name, c, sim, model)
			}
		}
	}
}

func TestMRUSmallHandChecked(t *testing.T) {
	// a b c b a — distances derived by hand from Mattson's update:
	// stacks [a], [b a], [c a b], hit b at depth 3, hit a at depth 2.
	s := NewMRU()
	type step struct {
		key  uint64
		cold bool
		dist uint64
	}
	steps := []step{
		{'a', true, 0}, {'b', true, 0}, {'c', true, 0},
		{'b', false, 3}, {'a', false, 2},
	}
	for i, st := range steps {
		got := s.Reference(st.key)
		if got.Cold != st.cold || got.Distance != st.dist {
			t.Fatalf("step %d key %c: got %+v want cold=%v dist=%d",
				i, rune(st.key), got, st.cold, st.dist)
		}
	}
}

func TestMRUOnLoop(t *testing.T) {
	// MRU on a loop of M keys settles into uniform distances over
	// 2..M: miss at capacity c ≈ (M-c)/M once warm.
	const m = 200
	tr, _ := trace.Collect(workload.NewLoop(m, nil), m*40)
	c := replay(NewMRU(), tr)
	missHalf := c.Eval(m / 2)
	if missHalf < 0.4 || missHalf > 0.62 {
		t.Fatalf("MRU miss at M/2 = %v; expected ~(M-c)/M ≈ 0.5 behaviour", missHalf)
	}
}

func TestDeleteIgnored(t *testing.T) {
	s := New(LFU{}, 1)
	s.Process(trace.Request{Key: 1, Op: trace.OpDelete})
	if len(s.counts) != 0 {
		t.Fatal("delete must be ignored")
	}
}

func TestNilPolicyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(nil, 1)
}

func BenchmarkLFUReference(b *testing.B) {
	s := New(LFU{}, 1)
	g := workload.NewZipf(3, 1<<16, 1.0, nil, 0)
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
