package core

import (
	"math"
	"testing"

	"krr/internal/mrc"
	"krr/internal/trace"
	"krr/internal/workload"
	"krr/internal/xrand"
)

func TestBucketGeometry(t *testing.T) {
	s := NewBucketStack(KPrimeFor(5), 1.5, 1)
	for i := 0; i < 5000; i++ {
		s.Reference(uint64(i), 1)
	}
	if s.Len() != 5000 {
		t.Fatalf("Len = %d, want 5000", s.Len())
	}
	var prevEnd int32
	for i, bk := range s.buckets {
		if bk.start != prevEnd+1 {
			t.Fatalf("bucket %d starts at %d, want %d", i, bk.start, prevEnd+1)
		}
		width := int32(math.Round(math.Pow(1.5, float64(i))))
		if width < 1 {
			width = 1
		}
		if bk.end-bk.start+1 != width {
			t.Fatalf("bucket %d width = %d, want %d", i, bk.end-bk.start+1, width)
		}
		wantNo := 0.0
		if bk.start > 1 {
			wantNo = math.Pow(float64(bk.start-1)/float64(bk.end), s.kPrime)
		}
		if math.Abs(bk.pNoSwap-wantNo) > 1e-12 {
			t.Fatalf("bucket %d pNoSwap = %v, want %v", i, bk.pNoSwap, wantNo)
		}
		prevEnd = bk.end
	}
	if last := s.buckets[len(s.buckets)-1]; last.start > 5000 {
		t.Fatalf("trailing empty bucket [%d, %d] with N = 5000", last.start, last.end)
	}

	// Ratio 1 degenerates to one position per bucket.
	s1 := NewBucketStack(1, 1, 1)
	for i := 0; i < 100; i++ {
		s1.Reference(uint64(i), 1)
	}
	for i, bk := range s1.buckets {
		if bk.start != int32(i+1) || bk.end != int32(i+1) {
			t.Fatalf("ratio-1 bucket %d spans [%d, %d], want [%d, %d]", i, bk.start, bk.end, i+1, i+1)
		}
	}
}

// checkBucketInvariants verifies the key-table/order cross-structure
// invariants after an arbitrary operation sequence: order and tpos are
// inverse bijections between positions 1..Len and the live table
// entries, every live entry is reachable from its fibonacci home
// without crossing an empty entry, the table is within its load bound,
// and the bucket table ends exactly at the bucket covering Len.
func checkBucketInvariants(t *testing.T, s *BucketStack) {
	t.Helper()
	n := s.Len()
	capacity := len(s.tkeys)
	if capacity < bucketTableMinCap || capacity&(capacity-1) != 0 || len(s.tpos) != capacity {
		t.Fatalf("table capacity %d (tpos %d) not a power of two >= %d", capacity, len(s.tpos), bucketTableMinCap)
	}
	if s.mask != uint64(capacity-1) || s.max != capacity-capacity>>2 {
		t.Fatalf("mask %#x / max %d inconsistent with capacity %d", s.mask, s.max, capacity)
	}
	if n > s.max {
		t.Fatalf("%d live entries exceed the 3/4-load bound %d", n, s.max)
	}
	seen := make(map[int32]bool, n)
	for p := int32(1); p <= int32(n); p++ {
		i := s.order[p]
		if i < 0 || int(i) >= capacity {
			t.Fatalf("order[%d] = %d out of table range", p, i)
		}
		if seen[i] {
			t.Fatalf("entry %d appears twice in order", i)
		}
		seen[i] = true
		if s.tpos[i] != p {
			t.Fatalf("tpos[order[%d]] = tpos[%d] = %d", p, i, s.tpos[i])
		}
	}
	live := 0
	for i, p := range s.tpos {
		if p == 0 {
			continue
		}
		live++
		if p < 0 || int(p) > n {
			t.Fatalf("tpos[%d] = %d outside 1..%d", i, p, n)
		}
		if s.order[p] != int32(i) {
			t.Fatalf("order[tpos[%d]] = order[%d] = %d", i, p, s.order[p])
		}
		key := s.tkeys[i]
		for j := s.home(key); j != uint64(i); j = (j + 1) & s.mask {
			if s.tpos[j] == 0 {
				t.Fatalf("key %#x at entry %d unreachable: empty entry %d on its probe path", key, i, j)
			}
			if s.tkeys[j] == key {
				t.Fatalf("key %#x stored at entries %d and %d", key, j, i)
			}
		}
		if got := s.PositionOf(key); got != p {
			t.Fatalf("PositionOf(%#x) = %d, want %d", key, got, p)
		}
	}
	if live != n {
		t.Fatalf("table holds %d live entries, stack holds %d", live, n)
	}
	if n > 0 {
		last := s.buckets[len(s.buckets)-1]
		if int32(n) < last.start || int32(n) > last.end {
			t.Fatalf("N = %d outside last bucket [%d, %d]", n, last.start, last.end)
		}
	} else if len(s.buckets) != 0 {
		t.Fatalf("empty stack retains %d buckets", len(s.buckets))
	}
	if len(s.ends) != len(s.buckets) {
		t.Fatalf("%d bucket ends for %d buckets", len(s.ends), len(s.buckets))
	}
	for j, bk := range s.buckets {
		if s.ends[j] != bk.end {
			t.Fatalf("ends[%d] = %d, want %d", j, s.ends[j], bk.end)
		}
	}
}

func TestBucketStackInvariantsUnderChurn(t *testing.T) {
	for _, ratio := range []float64{1, 1.5, 2, 4} {
		s := NewBucketStack(KPrimeFor(5), ratio, 7)
		r := xrand.New(99)
		for i := 0; i < 20000; i++ {
			key := r.Uint64() % 700
			if r.Uint64()%10 == 0 {
				s.Delete(key)
			} else {
				s.Reference(key, 1)
			}
		}
		checkBucketInvariants(t, s)
		// Drain to empty through Delete.
		for key := uint64(0); key < 700; key++ {
			s.Delete(key)
		}
		if s.Len() != 0 {
			t.Fatalf("ratio %v: Len = %d after deleting every key", ratio, s.Len())
		}
		checkBucketInvariants(t, s)
		// Deleted entries are reused: regrowing to fewer keys than the
		// table has held never grows it.
		before := len(s.tkeys)
		for key := uint64(0); key < 300; key++ {
			s.Reference(key, 1)
		}
		if len(s.tkeys) != before {
			t.Fatalf("table grew from %d to %d entries regrowing 300 of 700 deleted keys", before, len(s.tkeys))
		}
		checkBucketInvariants(t, s)
	}
}

func TestBucketStackDeterminism(t *testing.T) {
	run := func() []uint64 {
		s := NewBucketStack(KPrimeFor(8), 1.5, 42)
		r := xrand.New(5)
		var out []uint64
		for i := 0; i < 5000; i++ {
			res := s.Reference(r.Uint64()%300, 1)
			if !res.Cold {
				out = append(out, res.Distance)
			}
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs recorded %d vs %d distances", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("distance %d differs: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestBucketStackDelete(t *testing.T) {
	s := NewBucketStack(KPrimeFor(5), 1.5, 3)
	for i := 0; i < 1000; i++ {
		s.Reference(uint64(i), 2)
	}
	if !s.Delete(500) {
		t.Fatal("Delete(500) = false for a resident key")
	}
	if s.Delete(500) {
		t.Fatal("Delete(500) = true after removal")
	}
	if s.Len() != 999 {
		t.Fatalf("Len = %d after delete, want 999", s.Len())
	}
	if !s.Reference(500, 2).Cold {
		t.Fatal("re-reference after delete must be cold")
	}
	checkBucketInvariants(t, s)
}

// TestBucketRatioConvergence is the satellite property test: as the
// bucket ratio approaches 1 the bucketized stack converges to the
// exact backward-KRR distance law (at ratio 1 the per-bucket Bernoulli
// IS the per-position linear walk, which draws from the same joint
// swap-set distribution as Algorithm 2). Both sides are randomized
// models, so the comparison is between curves, with a tolerance that
// tightens as the ratio shrinks.
func TestBucketRatioConvergence(t *testing.T) {
	tr, err := trace.Collect(workload.NewZipf(17, 3000, 0.9, nil, 0), 60_000)
	if err != nil {
		t.Fatal(err)
	}
	ref := MustProfiler(Config{K: 8, Seed: 21})
	if err := ref.ProcessAll(tr.Reader()); err != nil {
		t.Fatal(err)
	}
	refCurve := ref.ObjectMRC()
	sizes := mrc.EvenSizes(3000, 30)

	maes := make(map[float64]float64)
	for _, ratio := range []float64{1, 2, 4} {
		p := MustBucketProfiler(BucketConfig{K: 8, Ratio: ratio, Seed: 22})
		if err := p.ProcessAll(tr.Reader()); err != nil {
			t.Fatal(err)
		}
		maes[ratio] = mrc.MAE(refCurve, p.ObjectMRC(), sizes)
		t.Logf("ratio %.2f: MAE vs backward = %.4f", ratio, maes[ratio])
	}
	// Ratio 1 is the same distance law as backward up to sampling
	// noise between two randomized runs.
	if maes[1] > 0.02 {
		t.Fatalf("ratio 1 MAE vs backward = %.4f, want <= 0.02 (statistical noise only)", maes[1])
	}
	if maes[4] > 0.15 {
		t.Fatalf("ratio 4 MAE vs backward = %.4f, want <= 0.15", maes[4])
	}
	if maes[1] > maes[4]+0.01 {
		t.Fatalf("MAE did not shrink toward ratio 1: ratio1=%.4f ratio4=%.4f", maes[1], maes[4])
	}
}

func TestBucketConfigValidate(t *testing.T) {
	if _, err := NewBucketProfiler(BucketConfig{K: 0}); err == nil {
		t.Fatal("K = 0 must be rejected")
	}
	if _, err := NewBucketProfiler(BucketConfig{K: 5, Ratio: 0.5}); err == nil {
		t.Fatal("ratio 0.5 must be rejected")
	}
	if _, err := NewBucketProfiler(BucketConfig{K: 5, Ratio: 9}); err == nil {
		t.Fatal("ratio 9 must be rejected")
	}
	if _, err := NewBucketProfiler(BucketConfig{K: 5, SamplingRate: 2}); err == nil {
		t.Fatal("sampling rate 2 must be rejected")
	}
	p, err := NewBucketProfiler(BucketConfig{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Stack().Ratio(); got != DefaultBucketRatio {
		t.Fatalf("default ratio = %v, want %v", got, DefaultBucketRatio)
	}
}
