package core

import "krr/internal/xrand"

// rngBatch sizes the uniform-draw buffer shared by the stack samplers.
const rngBatch = 64

// drawBatch batches uniform draws for the stack samplers without
// changing the consumed sequence. The split is for the inliner: next
// is the cursor check and the load, small enough to inline into every
// sampler loop, and refill — the xoshiro loop — stays out of line. If
// the compiler inlined refill back into next, next would exceed the
// inlining budget and every draw would pay a call again;
// scripts/check.sh fails unless `go build -gcflags=-m` reports next
// as inlinable.
type drawBatch struct {
	src *xrand.Source
	buf [rngBatch]float64
	pos int
}

// newDrawBatch wraps src with an empty buffer; the first draw refills.
func newDrawBatch(src *xrand.Source) drawBatch {
	return drawBatch{src: src, pos: rngBatch}
}

// next returns the next batched uniform draw from (0, 1]. The consumed
// sequence is identical to calling src.Float64Open per draw.
func (d *drawBatch) next() float64 {
	if d.pos >= rngBatch {
		d.refill()
	}
	v := d.buf[d.pos]
	d.pos++
	return v
}

// refill draws the next rngBatch values and rewinds the cursor.
//
//go:noinline
func (d *drawBatch) refill() {
	d.src.FillFloat64Open(d.buf[:])
	d.pos = 0
}
