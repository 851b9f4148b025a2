package core

import (
	"math"
	"testing"

	"krr/internal/histogram"
	"krr/internal/mrc"
	"krr/internal/trace"
	"krr/internal/workload"
	"krr/internal/xrand"
)

// replayByteCurve is the byte curve of one pass of s (built with a
// byte tracker) over tr, recorded the way the krr model does.
func replayByteCurve(s *Stack, tr *trace.Trace) *mrc.Curve {
	hist := histogram.NewLog()
	for _, req := range tr.Reqs {
		if req.Op == trace.OpDelete {
			s.Delete(req.Key)
			continue
		}
		if res := s.Reference(req.Key, req.Size); res.Cold {
			hist.AddCold()
		} else {
			hist.Add(res.ByteDistance)
		}
	}
	return mrc.FromHistogram(hist, 1)
}

// bruteByteDistance computes the exact inclusive byte distance from
// the stack's sizes slice.
func bruteByteDistance(s *Stack, phi int32) uint64 {
	var sum uint64
	for i := int32(1); i <= phi; i++ {
		sum += uint64(s.sizes[i])
	}
	return sum
}

func TestFenwickExactUnderUpdates(t *testing.T) {
	// After every reference, the Fenwick tracker must agree with a
	// brute-force prefix sum at every position.
	s := NewStack(3, 5, WithFenwick())
	f := s.tracker.(*fenwick)
	src := xrand.New(11)
	for step := 0; step < 4000; step++ {
		key := src.Uint64n(150)
		size := uint32(1 + src.Uint64n(500))
		if prev := s.pos.Get(key); prev != 0 {
			size = s.sizes[prev] // hold sizes fixed most of the time
			if step%17 == 0 {
				size += 7 // but exercise Resize too
			}
		}
		s.Reference(key, size)
		if step%23 != 0 {
			continue
		}
		for _, phi := range []int32{1, 2, int32(s.Len()/2) + 1, int32(s.Len())} {
			if phi > int32(s.Len()) {
				continue
			}
			if got, want := f.sum(phi), bruteByteDistance(s, phi); got != want {
				t.Fatalf("step %d phi %d: fenwick %d, brute %d", step, phi, got, want)
			}
		}
	}
}

func TestFenwickUnderDeletes(t *testing.T) {
	s := NewStack(2, 7, WithFenwick())
	f := s.tracker.(*fenwick)
	src := xrand.New(3)
	for step := 0; step < 2000; step++ {
		key := src.Uint64n(60)
		if step%13 == 0 {
			s.Delete(key)
		} else {
			s.Reference(key, uint32(1+key%97))
		}
		if s.Len() > 0 && step%29 == 0 {
			phi := int32(s.Len())
			if got, want := f.sum(phi), bruteByteDistance(s, phi); got != want {
				t.Fatalf("step %d: fenwick %d, brute %d after deletes", step, got, want)
			}
		}
	}
}

func TestSizeArrayExactAtBoundaries(t *testing.T) {
	// The sizeArray must be *exact* at power-of-two boundaries: the
	// interpolation of Algorithm 3 is only between them.
	s := NewStack(4, 9, WithSizeArray())
	a := s.tracker.(*sizeArray)
	src := xrand.New(17)
	for step := 0; step < 5000; step++ {
		key := src.Uint64n(300)
		size := uint32(1 + src.Uint64n(1000))
		if prev := s.pos.Get(key); prev != 0 {
			size = s.sizes[prev]
		}
		s.Reference(key, size)
		if step%31 != 0 {
			continue
		}
		for j := 0; (1 << j) <= s.Len(); j++ {
			phi := int32(1) << j
			if got, want := a.prefix[j], bruteByteDistance(s, phi); got != want {
				t.Fatalf("step %d boundary 2^%d: sizeArray %d, brute %d", step, j, got, want)
			}
		}
		if a.total != s.totalBytes {
			t.Fatalf("total drift: %d vs %d", a.total, s.totalBytes)
		}
	}
}

func TestSizeArrayInterpolationReasonable(t *testing.T) {
	// Between boundaries, Algorithm 3's estimate must stay within the
	// bracketing boundary values and track the truth closely on
	// homogeneous-ish sizes.
	s := NewStack(3, 13, WithSizeArray())
	src := xrand.New(23)
	for step := 0; step < 20000; step++ {
		s.Reference(src.Uint64n(2000), uint32(100+src.Uint64n(100)))
	}
	a := s.tracker.(*sizeArray)
	var relErr, samples float64
	for phi := int32(2); phi < int32(s.Len()); phi += 37 {
		got := float64(a.ByteDistance(phi, s))
		want := float64(bruteByteDistance(s, phi))
		relErr += math.Abs(got-want) / want
		samples++
	}
	if avg := relErr / samples; avg > 0.05 {
		t.Fatalf("mean relative interpolation error %v", avg)
	}
}

func TestSizeArrayMatchesFenwickStatistically(t *testing.T) {
	// var-KRR with the approximate sizeArray must produce nearly the
	// same byte MRC as the exact Fenwick tracker.
	g := workload.NewTwitterLike(3, workload.TwitterParams{Keys: 3000, Alpha: 1.0})
	tr, _ := trace.Collect(g, 60000)

	approx := NewStack(KPrimeFor(8), 5, WithSizeArray())
	exact := NewStack(KPrimeFor(8), 5, WithFenwick())
	ac, ec := replayByteCurve(approx, tr), replayByteCurve(exact, tr)
	sizes := mrc.EvenSizes(exact.TotalBytes(), 25)
	if mae := mrc.MAE(ac, ec, sizes); mae > 0.02 {
		t.Fatalf("sizeArray vs fenwick byte MRC MAE %v", mae)
	}
}

func TestUniformVsVarByteDistances(t *testing.T) {
	// On heterogeneous sizes the uniform assumption must diverge from
	// the exact byte distance (the motivation for §4.4.1), while the
	// sizeArray stays close.
	s := NewStack(1e7, 3, WithFenwick()) // LRU-like ordering for determinism
	// Sizes alternate tiny/huge.
	for k := uint64(1); k <= 1000; k++ {
		size := uint32(10)
		if k%2 == 0 {
			size = 10000
		}
		s.Reference(k, size)
	}
	res := s.Reference(1, 10) // deepest position
	exactD := res.ByteDistance
	uniD := s.UniformByteDistance(res.Distance)
	if exactD == 0 {
		t.Fatal("exact byte distance missing")
	}
	// Exact: ~500*10 + 500*10000. Uniform happens to match on global
	// mean for the full-depth object; probe a shallow one instead.
	s2 := NewStack(1e7, 3, WithFenwick())
	for k := uint64(1); k <= 1000; k++ {
		size := uint32(10)
		if k > 500 {
			size = 10000
		}
		s2.Reference(k, size)
	}
	// Object 999 sits near the top with only huge objects above it.
	res2 := s2.Reference(999, 10000)
	exact2 := float64(res2.ByteDistance)
	uni2 := float64(s2.UniformByteDistance(res2.Distance))
	if math.Abs(uni2-exact2)/exact2 < 0.2 {
		t.Fatalf("uniform estimate %v suspiciously close to exact %v on skewed layout", uni2, exact2)
	}
	_ = uniD
}

func TestVarKRRPredictsByteKLRU(t *testing.T) {
	// End-to-end §5.4: var-KRR byte MRC vs a byte-capacity K-LRU
	// simulation. (Uses the lightweight local simulator from
	// core_test to stay import-cycle-free.)
	g := workload.NewTwitterLike(7, workload.TwitterParams{Keys: 2000, Alpha: 1.1})
	tr, _ := trace.Collect(g, 50000)

	const k = 8
	s := NewStack(KPrimeFor(k), 9, WithSizeArray())
	model := replayByteCurve(s, tr)

	wss := s.TotalBytes()
	sizes := mrc.EvenSizes(wss, 8)
	miss := make([]float64, len(sizes))
	for i, capBytes := range sizes {
		cache := newTestByteKLRU(capBytes, k, uint64(i)*31+1)
		var hits, total int
		r := tr.Reader()
		for {
			req, err := r.Next()
			if err != nil {
				break
			}
			total++
			if cache.access(req.Key, req.Size) {
				hits++
			}
		}
		miss[i] = 1 - float64(hits)/float64(total)
	}
	truth := mrc.FromPoints(sizes, miss)
	if mae := mrc.MAE(model, truth, sizes); mae > 0.04 {
		t.Fatalf("var-KRR vs byte K-LRU simulation MAE %v", mae)
	}
}

type testByteKLRU struct {
	capBytes uint64
	k        int
	src      *xrand.Source
	keys     []uint64
	sizes    []uint32
	last     []uint64
	index    map[uint64]int
	used     uint64
	clock    uint64
}

func newTestByteKLRU(capBytes uint64, k int, seed uint64) *testByteKLRU {
	return &testByteKLRU{capBytes: capBytes, k: k, src: xrand.New(seed), index: make(map[uint64]int)}
}

func (c *testByteKLRU) access(key uint64, size uint32) bool {
	c.clock++
	if i, ok := c.index[key]; ok {
		c.last[i] = c.clock
		return true
	}
	if uint64(size) > c.capBytes {
		return false
	}
	for len(c.keys) > 0 && c.used+uint64(size) > c.capBytes {
		victim := int(c.src.Uint64n(uint64(len(c.keys))))
		for j := 1; j < c.k; j++ {
			cand := int(c.src.Uint64n(uint64(len(c.keys))))
			if c.last[cand] < c.last[victim] {
				victim = cand
			}
		}
		c.used -= uint64(c.sizes[victim])
		delete(c.index, c.keys[victim])
		lastI := len(c.keys) - 1
		if victim != lastI {
			c.keys[victim], c.sizes[victim], c.last[victim] = c.keys[lastI], c.sizes[lastI], c.last[lastI]
			c.index[c.keys[victim]] = victim
		}
		c.keys, c.sizes, c.last = c.keys[:lastI], c.sizes[:lastI], c.last[:lastI]
	}
	c.index[key] = len(c.keys)
	c.keys = append(c.keys, key)
	c.sizes = append(c.sizes, size)
	c.last = append(c.last, c.clock)
	c.used += uint64(size)
	return false
}

func TestTrackersRebuildAfterDelete(t *testing.T) {
	for _, opt := range []Option{WithSizeArray(), WithFenwick()} {
		s := NewStack(2, 3, opt)
		for k := uint64(1); k <= 64; k++ {
			s.Reference(k, uint32(k))
		}
		s.Delete(32)
		// Tracker must agree with brute force after the rebuild.
		got := s.tracker.ByteDistance(int32(s.Len()), s)
		want := bruteByteDistance(s, int32(s.Len()))
		if got != want {
			t.Fatalf("rebuild: tracker %d, brute %d", got, want)
		}
	}
}

func TestByteDistanceEdgeCases(t *testing.T) {
	for _, opt := range []Option{WithSizeArray(), WithFenwick()} {
		s := NewStack(2, 3, opt)
		if d := s.tracker.ByteDistance(1, s); d != 0 {
			t.Fatalf("empty stack byte distance %d", d)
		}
		s.Reference(1, 42)
		if d := s.tracker.ByteDistance(1, s); d != 42 {
			t.Fatalf("singleton byte distance %d, want 42", d)
		}
		// Clamp beyond stack length.
		if d := s.tracker.ByteDistance(99, s); d != 42 {
			t.Fatalf("overlong byte distance %d, want clamp to total", d)
		}
	}
}

func BenchmarkVarKRRSizeArray(b *testing.B) {
	benchVar(b, WithSizeArray())
}

func BenchmarkVarKRRFenwick(b *testing.B) {
	benchVar(b, WithFenwick())
}

// benchVar times stack references with one byte tracker.
func benchVar(b *testing.B, tracker Option) {
	s := NewStack(KPrimeFor(5), 1, tracker)
	g := workload.NewTwitterLike(3, workload.TwitterParams{Keys: 1 << 15, Alpha: 1.0})
	reqs := make([]trace.Request, 1<<16)
	for i := range reqs {
		reqs[i], _ = g.Next()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := reqs[i&(1<<16-1)]
		s.Reference(req.Key, req.Size)
	}
}
