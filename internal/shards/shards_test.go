package shards

import (
	"sort"
	"testing"

	"krr/internal/hashing"
	"krr/internal/mrc"
	"krr/internal/olken"
	"krr/internal/sampling"
	"krr/internal/trace"
	"krr/internal/workload"
)

func TestFixedSizeBoundsSampleSet(t *testing.T) {
	const sMax = 500
	s := NewFixedSize(1.0, sMax, 3)
	g := workload.NewZipf(7, 100000, 0.8, nil, 0)
	tr, err := trace.Collect(g, 200000)
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range tr.Reqs {
		s.Process(req)
	}
	if s.stack.Len() > sMax {
		t.Fatalf("tracked %d > sMax %d", s.stack.Len(), sMax)
	}
	if s.Rate() >= 1.0 {
		t.Fatal("rate must have been lowered")
	}
}

func TestFixedSizeDeleteHandling(t *testing.T) {
	s := NewFixedSize(1.0, 100, 1)
	s.Process(trace.Request{Key: 1, Size: 1, Op: trace.OpGet})
	s.Process(trace.Request{Key: 1, Op: trace.OpDelete})
	if s.stack.Len() != 0 {
		t.Fatal("delete must remove from sample set")
	}
	// Unknown key delete is a no-op.
	s.Process(trace.Request{Key: 99, Op: trace.OpDelete})
}

func TestFixedSizeEmptyMRC(t *testing.T) {
	s := NewFixedSize(0.5, 10, 1)
	c := s.MRC()
	if c.Eval(100) != 1 {
		t.Fatal("empty model must predict all-miss")
	}
}

func TestFixedSizePanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewFixedSize(0, 10, 1) },
		func() { NewFixedSize(0.5, 1, 1) },
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

// slowFixedSize is the pre-optimization map-based FixedSize, kept as
// a test oracle: per-reference map writes, a full sample-set scan per
// over-cap insert, and a sorted-map histogram. The flat-histogram /
// lazy-heap rewrite must reproduce its output bit for bit.
type slowFixedSize struct {
	sMax      int
	threshold uint64
	stack     *olken.Stack
	hashes    map[uint64]uint64
	hist      map[uint64]float64
	coldW     float64
	totalW    float64
}

func newSlowFixedSize(startRate float64, sMax int, seed uint64) *slowFixedSize {
	return &slowFixedSize{
		sMax:      sMax,
		threshold: uint64(startRate*sampling.Modulus + 0.5),
		stack:     olken.New(seed),
		hashes:    make(map[uint64]uint64),
		hist:      make(map[uint64]float64),
	}
}

func (s *slowFixedSize) process(req trace.Request) {
	h := hashing.Mix64(req.Key) % sampling.Modulus
	if h >= s.threshold {
		return
	}
	if req.Op == trace.OpDelete {
		if s.stack.Delete(req.Key) {
			delete(s.hashes, req.Key)
		}
		return
	}
	rate := float64(s.threshold) / sampling.Modulus
	res := s.stack.Reference(req.Key, req.Size)
	s.hashes[req.Key] = h
	w := 1 / rate
	s.totalW += w
	if res.Cold {
		s.coldW += w
		for s.stack.Len() > s.sMax {
			var maxHash uint64
			for _, hh := range s.hashes {
				if hh > maxHash {
					maxHash = hh
				}
			}
			s.threshold = maxHash
			for key, hh := range s.hashes {
				if hh >= s.threshold {
					s.stack.Delete(key)
					delete(s.hashes, key)
				}
			}
		}
		return
	}
	d := uint64(float64(res.Distance)/rate + 0.5)
	if d == 0 {
		d = 1
	}
	s.hist[d] += w
}

func (s *slowFixedSize) mrc() *mrc.Curve {
	dists := make([]uint64, 0, len(s.hist))
	for d := range s.hist {
		dists = append(dists, d)
	}
	sort.Slice(dists, func(i, j int) bool { return dists[i] < dists[j] })
	c := &mrc.Curve{Sizes: []uint64{0}, Miss: []float64{1}, Interp: mrc.InterpStep}
	var cum float64
	for _, d := range dists {
		cum += s.hist[d]
		c.Sizes = append(c.Sizes, d)
		c.Miss = append(c.Miss, clamp01(1-cum/s.totalW))
	}
	return c
}

// TestFixedSizeMatchesMapReference pins the optimized FixedSize to the
// map-based original, bit for bit, across randomized traces with
// deletes and sample caps small enough to force many threshold
// shrinks. Eviction order differs between the two (hash-sorted heap
// pops vs map iteration), so this also certifies that eviction order
// cannot affect the curve. Process must also report the reference's
// own threshold test for every request.
func TestFixedSizeMatchesMapReference(t *testing.T) {
	for _, tc := range []struct {
		seed uint64
		keys uint64
		sMax int
	}{
		{seed: 11, keys: 30000, sMax: 300},
		{seed: 12, keys: 5000, sMax: 64},
		{seed: 13, keys: 80000, sMax: 1000},
	} {
		g := workload.NewZipf(tc.seed, tc.keys, 0.9, nil, 0.05)
		tr, err := trace.Collect(g, 100000)
		if err != nil {
			t.Fatal(err)
		}
		fast := NewFixedSize(1.0, tc.sMax, 7)
		slow := newSlowFixedSize(1.0, tc.sMax, 7)
		for i, req := range tr.Reqs {
			want := hashing.Mix64(req.Key)%sampling.Modulus < slow.threshold
			if got := fast.Process(req); got != want {
				t.Fatalf("seed %d request %d: Process reported %v, reference threshold test %v", tc.seed, i, got, want)
			}
			slow.process(req)
		}
		if fast.threshold != slow.threshold {
			t.Fatalf("seed %d: threshold %d vs reference %d", tc.seed, fast.threshold, slow.threshold)
		}
		if fast.stack.Len() != slow.stack.Len() {
			t.Fatalf("seed %d: tracked %d vs reference %d", tc.seed, fast.stack.Len(), slow.stack.Len())
		}
		got, want := fast.MRC(), slow.mrc()
		if len(got.Sizes) != len(want.Sizes) {
			t.Fatalf("seed %d: breakpoint counts differ: %d vs %d", tc.seed, len(got.Sizes), len(want.Sizes))
		}
		for i := range got.Sizes {
			if got.Sizes[i] != want.Sizes[i] || got.Miss[i] != want.Miss[i] {
				t.Fatalf("seed %d: curves differ at %d: (%d, %v) vs (%d, %v)",
					tc.seed, i, got.Sizes[i], got.Miss[i], want.Sizes[i], want.Miss[i])
			}
		}
	}
}
