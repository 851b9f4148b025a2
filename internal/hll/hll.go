// Package hll implements the HyperLogLog cardinality estimator
// (Flajolet et al. '07) with the HLL++ linear-counting small-range
// correction. It folds in 64-bit hashes that are already well mixed
// (callers pass hashing.Mix64 of the key), so it needs no seed and is
// fully deterministic. With 64-bit hashes no large-range correction is
// needed.
package hll

import (
	"math"
	"math/bits"
)

// Sketch is a HyperLogLog sketch with 2^p one-byte registers; its
// relative standard error is about 1.04/√(2^p).
type Sketch struct {
	p   uint8
	reg []uint8
}

// New returns an empty sketch of precision p (2^p registers), which
// must lie in [4, 18].
func New(p uint8) *Sketch {
	if p < 4 || p > 18 {
		panic("hll: precision must be in [4, 18]")
	}
	return &Sketch{p: p, reg: make([]uint8, 1<<p)}
}

// Add folds one hash into the sketch. The top p bits pick the
// register; the rank is one more than the leading zeros of the rest,
// capped at 64-p+1 by a guard bit below the rest.
func (h *Sketch) Add(hash uint64) {
	idx := hash >> (64 - h.p)
	rank := uint8(bits.LeadingZeros64(hash<<h.p|1<<(h.p-1))) + 1
	if rank > h.reg[idx] {
		h.reg[idx] = rank
	}
}

// Estimate returns the estimated number of distinct hashes added.
func (h *Sketch) Estimate() float64 {
	m := float64(len(h.reg))
	var sum float64
	zeros := 0
	for _, r := range h.reg {
		sum += 1 / float64(uint64(1)<<r)
		if r == 0 {
			zeros++
		}
	}
	e := 0.7213 / (1 + 1.079/m) * m * m / sum
	// Linear counting is more accurate while empty registers remain.
	if e <= 2.5*m && zeros > 0 {
		e = m * math.Log(m/float64(zeros))
	}
	return e
}

// Merge folds other, which must have the same precision, into h: the
// register-wise max, the sketch of the union.
func (h *Sketch) Merge(other *Sketch) {
	for i, r := range other.reg {
		if r > h.reg[i] {
			h.reg[i] = r
		}
	}
}

// Clone returns an independent copy of h.
func (h *Sketch) Clone() *Sketch {
	return &Sketch{p: h.p, reg: append([]uint8(nil), h.reg...)}
}

// MemBytes reports the register array size.
func (h *Sketch) MemBytes() uint64 { return uint64(len(h.reg)) }
