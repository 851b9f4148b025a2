// Package xrand provides fast, deterministic pseudo-random number
// generation and the heavy-tailed samplers used by the synthetic
// workload generators and the probabilistic KRR stack.
//
// The core generator is xoshiro256**, seeded through SplitMix64 so that
// any 64-bit seed yields a well-mixed initial state. All state is local
// to the Source value: no global locking, which matters because the
// multi-size simulation sweeps run one generator per goroutine.
package xrand

import "math"

// Source is a xoshiro256** pseudo-random generator. The zero value is
// not a valid generator; use New or Seed before drawing from it.
//
// Source intentionally does not implement math/rand.Source64 locking or
// any synchronization: each goroutine owns its Source.
type Source struct {
	s0, s1, s2, s3 uint64

	// Cached second deviate from the polar Box-Muller transform.
	spare     float64
	haveSpare bool
}

// New returns a Source seeded from seed via SplitMix64.
func New(seed uint64) *Source {
	var s Source
	s.Seed(seed)
	return &s
}

// Seed resets the generator state from a 64-bit seed. Distinct seeds
// yield statistically independent streams for all practical purposes.
func (s *Source) Seed(seed uint64) {
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	s.s0, s.s1, s.s2, s.s3 = next(), next(), next(), next()
	// A state of all zeros would lock the generator at zero; SplitMix64
	// cannot produce four consecutive zeros, but guard anyway.
	if s.s0|s.s1|s.s2|s.s3 == 0 {
		s.s0 = 0x9e3779b97f4a7c15
	}
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next value in the stream.
func (s *Source) Uint64() uint64 {
	result := rotl(s.s1*5, 7) * 9
	t := s.s1 << 17
	s.s2 ^= s.s0
	s.s3 ^= s.s1
	s.s1 ^= s.s2
	s.s0 ^= s.s3
	s.s2 ^= t
	s.s3 = rotl(s.s3, 45)
	return result
}

// Jump advances the stream by 2^128 draws, equivalent to that many
// Uint64 calls. Use it to split one seed into non-overlapping
// sub-streams for parallel workers.
func (s *Source) Jump() {
	jump := [4]uint64{0x180ec6d33cfd0aba, 0xd5a61266f0c9392c, 0xa9582618e03fc9aa, 0x39abdc4529b1661c}
	var t0, t1, t2, t3 uint64
	for _, j := range jump {
		for b := 0; b < 64; b++ {
			if j&(1<<uint(b)) != 0 {
				t0 ^= s.s0
				t1 ^= s.s1
				t2 ^= s.s2
				t3 ^= s.s3
			}
			s.Uint64()
		}
	}
	s.s0, s.s1, s.s2, s.s3 = t0, t1, t2, t3
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) * (1.0 / (1 << 53))
}

// Float64Open returns a uniform value in (0, 1]. The backward KRR stack
// update draws from a half-open interval excluding zero so that the
// inverse-CDF step r^(1/K) never maps to rank zero.
func (s *Source) Float64Open() float64 {
	return 1.0 - s.Float64()
}

// FillFloat64Open fills dst with uniform values in (0, 1]: the values,
// and the state left behind, are those of len(dst) Float64Open calls.
// The generator state stays in registers across the loop instead of
// round-tripping through memory on every draw.
func (s *Source) FillFloat64Open(dst []float64) {
	s0, s1, s2, s3 := s.s0, s.s1, s.s2, s.s3
	for i := range dst {
		result := rotl(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = rotl(s3, 45)
		dst[i] = 1.0 - float64(result>>11)*(1.0/(1<<53))
	}
	s.s0, s.s1, s.s2, s.s3 = s0, s1, s2, s3
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
// Lemire's multiply-shift rejection method: one multiply in the common
// case, unbiased.
func (s *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with n == 0")
	}
	v := s.Uint64()
	hi, lo := mul64(v, n)
	if lo < n {
		thresh := (-n) % n
		for lo < thresh {
			v = s.Uint64()
			hi, lo = mul64(v, n)
		}
	}
	return hi
}

// mul64 returns the 128-bit product of x and y as (hi, lo).
func mul64(x, y uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	x0, x1 := x&mask32, x>>32
	y0, y1 := y&mask32, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += x0 * y1
	hi = x1*y1 + w2 + w1>>32
	lo = x * y
	return
}

// Intn returns a uniform value in [0, n) as an int. It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with n <= 0")
	}
	return int(s.Uint64n(uint64(n)))
}

// Perm returns a random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := s.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// NormFloat64 returns a standard normal deviate via the polar
// Box-Muller transform. One spare deviate is cached.
func (s *Source) NormFloat64() float64 {
	if s.haveSpare {
		s.haveSpare = false
		return s.spare
	}
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q == 0 || q >= 1 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(q) / q)
		s.spare = v * f
		s.haveSpare = true
		return u * f
	}
}

// ExpFloat64 returns an exponential deviate with rate 1.
func (s *Source) ExpFloat64() float64 {
	return -math.Log(s.Float64Open())
}
