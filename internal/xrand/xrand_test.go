package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("draw %d: %d != %d", i, x, y)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 collided on %d of 100 draws", same)
	}
}

func TestZeroSeedValid(t *testing.T) {
	s := New(0)
	var zeros int
	for i := 0; i < 100; i++ {
		if s.Uint64() == 0 {
			zeros++
		}
	}
	if zeros > 1 {
		t.Fatalf("zero-seeded generator produced %d zeros in 100 draws", zeros)
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(7)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
		g := s.Float64Open()
		if g <= 0 || g > 1 {
			t.Fatalf("Float64Open out of (0,1]: %v", g)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(11)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean %v too far from 0.5", mean)
	}
}

func TestUint64nBounds(t *testing.T) {
	s := New(3)
	err := quick.Check(func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		v := s.Uint64n(n)
		return v < n
	}, &quick.Config{MaxCount: 2000})
	if err != nil {
		t.Fatal(err)
	}
}

func TestUint64nUniform(t *testing.T) {
	s := New(5)
	const n, draws = 10, 100000
	var counts [n]int
	for i := 0; i < draws; i++ {
		counts[s.Uint64n(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 0.05*want {
			t.Fatalf("bucket %d: got %d, want ~%.0f", i, c, want)
		}
	}
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Intn(0)
}

func TestPerm(t *testing.T) {
	s := New(9)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := s.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make(map[int]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	s := New(13)
	xs := make([]int, 50)
	for i := range xs {
		xs[i] = i
	}
	s.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	seen := make(map[int]bool)
	for _, v := range xs {
		seen[v] = true
	}
	if len(seen) != 50 {
		t.Fatalf("shuffle lost elements: %v", xs)
	}
}

func TestJumpDiverges(t *testing.T) {
	a := New(99)
	b := New(99)
	b.Jump()
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("jumped stream collided %d times", same)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	s := New(17)
	const n = 300000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := s.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Fatalf("normal mean %v too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Fatalf("normal variance %v too far from 1", variance)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	s := New(19)
	const n = 300000
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.ExpFloat64()
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Fatalf("exponential mean %v too far from 1", mean)
	}
}

func TestZipfBounds(t *testing.T) {
	s := New(23)
	for _, alpha := range []float64{0.5, 0.99, 1.0, 1.5, 2.5} {
		z := NewZipf(s, alpha, 1000)
		for i := 0; i < 10000; i++ {
			if v := z.Uint64(); v >= 1000 {
				t.Fatalf("alpha=%v: out-of-range draw %d", alpha, v)
			}
		}
	}
}

func TestZipfSkew(t *testing.T) {
	// Rank-0 frequency must match 1/H_{n,α} within tolerance, and a
	// larger α must concentrate more mass on the head.
	s := New(29)
	const n = 1000
	const draws = 400000
	freq0 := func(alpha float64) float64 {
		z := NewZipf(s, alpha, n)
		c := 0
		for i := 0; i < draws; i++ {
			if z.Uint64() == 0 {
				c++
			}
		}
		return float64(c) / draws
	}
	for _, alpha := range []float64{0.5, 0.99, 1.5} {
		var h float64
		for r := 1; r <= n; r++ {
			h += 1 / math.Pow(float64(r), alpha)
		}
		want := 1 / h
		got := freq0(alpha)
		if math.Abs(got-want) > 0.15*want+0.002 {
			t.Fatalf("alpha=%v: head frequency %v, want ~%v", alpha, got, want)
		}
	}
	if f1, f2 := freq0(0.5), freq0(1.5); f1 >= f2 {
		t.Fatalf("skew not monotone: freq0(0.5)=%v >= freq0(1.5)=%v", f1, f2)
	}
}

func TestZipfSingleton(t *testing.T) {
	z := NewZipf(New(1), 1.0, 1)
	for i := 0; i < 100; i++ {
		if z.Uint64() != 0 {
			t.Fatal("singleton Zipf must always draw 0")
		}
	}
}

func TestZipfPanics(t *testing.T) {
	for _, c := range []struct {
		q float64
		n uint64
	}{{0, 10}, {-1, 10}, {1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewZipf(%v,%v): expected panic", c.q, c.n)
				}
			}()
			NewZipf(New(1), c.q, c.n)
		}()
	}
}

func TestLogNormalMedian(t *testing.T) {
	s := New(31)
	ln := NewLogNormal(s, math.Log(200), 1.0)
	const n = 100000
	vals := 0
	for i := 0; i < n; i++ {
		if ln.Float64() < 200 {
			vals++
		}
	}
	// Median of lognormal(mu, sigma) is exp(mu).
	if frac := float64(vals) / n; math.Abs(frac-0.5) > 0.02 {
		t.Fatalf("lognormal median check: %v below exp(mu), want ~0.5", frac)
	}
}

func TestParetoTail(t *testing.T) {
	s := New(37)
	p := NewPareto(s, 64, 1.5)
	const n = 200000
	over := 0
	for i := 0; i < n; i++ {
		v := p.Float64()
		if v < 64 {
			t.Fatalf("Pareto deviate %v below scale", v)
		}
		if v > 128 {
			over++
		}
	}
	// P(X > 2*xm) = 2^-1.5 ≈ 0.3536.
	want := math.Pow(2, -1.5)
	if got := float64(over) / n; math.Abs(got-want) > 0.01 {
		t.Fatalf("Pareto tail mass %v, want ~%v", got, want)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += s.Uint64()
	}
	_ = sink
}

func BenchmarkZipf(b *testing.B) {
	s := New(1)
	z := NewZipf(s, 0.99, 1<<20)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += z.Uint64()
	}
	_ = sink
}

// TestFillFloat64OpenMatchesPerDraw checks FillFloat64Open against
// Float64Open called per draw on a twin source, over fills of several
// lengths in a row, and that the two streams continue in step after
// each fill.
func TestFillFloat64OpenMatchesPerDraw(t *testing.T) {
	s, ref := New(42), New(42)
	buf := make([]float64, 64)
	drawn := 0
	for _, n := range []int{64, 1, 0, 63, 64, 17, 64} {
		s.FillFloat64Open(buf[:n])
		for i, got := range buf[:n] {
			if want := ref.Float64Open(); got != want {
				t.Fatalf("draw %d = %v, want %v", drawn+i, got, want)
			}
		}
		drawn += n
		if got, want := s.Uint64(), ref.Uint64(); got != want {
			t.Fatalf("after %d draws the streams diverge: %x, want %x", drawn, got, want)
		}
	}
}
