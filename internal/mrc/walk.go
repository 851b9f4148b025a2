package mrc

import (
	"io"
	"math"
	"sort"

	"krr/internal/histogram"
)

// The breakpoint rule — the one definition of how a stack-distance
// histogram becomes curve breakpoints. Buckets are folded in increasing
// distance order. The bucket at distance d lands at cache size
// bucketSize(d, scale). A bucket whose size repeats the pending
// breakpoint's overwrites it; otherwise the pending breakpoint is
// final. A breakpoint's miss ratio is missAt(at, total), where at
// counts the references at distances up to its last bucket. The curve
// starts at the pending breakpoint (0, 1): an empty cache misses
// everything.

// bucketSize is the cache size distance d stands for: d·scale rounded
// to nearest, at least 1 (size 0 is the curve's origin).
func bucketSize(d uint64, scale float64) uint64 {
	if s := uint64(float64(d)*scale + 0.5); s != 0 {
		return s
	}
	return 1
}

// missAt is the miss ratio of a breakpoint with at of total references
// at or below it.
func missAt(at uint64, total float64) float64 {
	if at == 0 {
		return 1 // the origin, also of an empty histogram
	}
	return 1 - float64(at)/total
}

// walk applies the breakpoint rule to a dense histogram's counts,
// yielding breakpoints in order without building the curve.
type walk struct {
	counts []uint64
	scale  float64
	d      int    // next distance to fold
	size   uint64 // the pending breakpoint's size...
	at     uint64 // ...and the references at or below it (all below d)
	j      int    // breakpoints finalized so far
	done   bool
}

// skip passes over the next n breakpoints and returns the one after
// them as its size and the references at or below it.
func (w *walk) skip(n int) (size, at uint64, ok bool) {
	if w.done {
		return 0, 0, false
	}
	counts, scale := w.counts, w.scale
	d, psize, pat, j := w.d, w.size, w.at, w.j
	cum := pat
	for ; d < len(counts); d++ {
		c := counts[d]
		if c == 0 {
			continue
		}
		cum += c
		s := bucketSize(uint64(d), scale)
		if s == psize {
			pat = cum
			continue
		}
		j++
		if n == 0 {
			w.d, w.size, w.at, w.j = d+1, s, cum, j
			return psize, pat, true
		}
		n--
		psize, pat = s, cum
	}
	// The buckets ran out: the pending breakpoint is the last one.
	w.d, w.j, w.done = d, j+1, true
	if n > 0 {
		return 0, 0, false
	}
	return psize, pat, true
}

// next returns the next breakpoint.
func (w *walk) next() (size, at uint64, ok bool) { return w.skip(0) }

// downsampleIndex is the index of the i-th of n breakpoints that
// Downsample(n) keeps from a curve whose last index is last (n < last+1):
// evenly spaced with both ends kept, or just the last when n == 1.
func downsampleIndex(i, n, last int) int {
	if n == 1 {
		return last
	}
	return i * last / (n - 1)
}

// picks yields the breakpoints of FromHistogram(h, scale).Downsample(n):
// walk indices downsampleIndex(i, n, last) for i < n.
type picks struct {
	w       walk
	n, last int // kept count, last index; n == last+1 keeps every one
	i       int // next kept ordinal
}

func (p *picks) next() (size, at uint64, ok bool) {
	if p.i == p.n {
		return 0, 0, false
	}
	want := p.i
	if p.n != p.last+1 {
		want = downsampleIndex(p.i, p.n, p.last)
	}
	p.i++
	return p.w.skip(want - p.w.j)
}

// HistCurve is the curve FromHistogram(H, Scale) describes, read
// straight from the histogram: evaluating it or writing it as JSON,
// whole or downsampled, gives exactly what the same operation on the
// built curve gives, without building it. H must not change while a
// HistCurve reads it.
type HistCurve struct {
	H     *histogram.Dense
	Scale float64
}

func (v HistCurve) walk() walk {
	if v.Scale <= 0 {
		panic("mrc: non-positive scale")
	}
	return walk{counts: v.H.Counts(), scale: v.Scale}
}

func (v HistCurve) total() float64 { return float64(v.H.Total()) }

// Len returns the number of breakpoints.
func (v HistCurve) Len() int {
	w := v.walk()
	w.skip(math.MaxInt)
	return w.j
}

// picks selects the breakpoints Downsample(n) keeps. Keeping all of
// them (n <= 0, or n at least the curve's length) needs no count pass.
func (v HistCurve) picks(n int) picks {
	p := picks{w: v.walk(), n: math.MaxInt, last: math.MaxInt - 1}
	if n > 0 {
		if total := v.Len(); total > n {
			p.n, p.last = n, total-1
		}
	}
	return p
}

// Eval returns the miss ratio at a cache size, equal to
// FromHistogram(H, Scale).Eval(size): that of the last breakpoint at or
// below size. Bucket sizes never decrease with distance, so that
// breakpoint counts every reference whose bucket lands at or below
// size — a binary search and a prefix sum, without allocating.
func (v HistCurve) Eval(size uint64) float64 {
	w := v.walk()
	n := sort.Search(len(w.counts), func(d int) bool { return bucketSize(uint64(d), w.scale) > size })
	var at uint64
	for _, c := range w.counts[:n] {
		at += c
	}
	return missAt(at, v.total())
}

// Curve builds the curve, sized exactly.
func (v HistCurve) Curve() *Curve { return v.collect(v.picks(0), v.Len()) }

// collect builds the curve of the size breakpoints p yields.
func (v HistCurve) collect(p picks, size int) *Curve {
	c := &Curve{Sizes: make([]uint64, 0, size), Miss: make([]float64, 0, size), Interp: InterpStep}
	total := v.total()
	for {
		s, at, ok := p.next()
		if !ok {
			return c
		}
		c.Sizes = append(c.Sizes, s)
		c.Miss = append(c.Miss, missAt(at, total))
	}
}

// WriteJSON writes FromHistogram(H, Scale).Downsample(points)
// (every breakpoint when points <= 0) in the bytes Curve.WriteJSON
// emits for it. A real reduction builds just the points it keeps; the
// full curve streams from the histogram, one walk for the sizes and
// one for the miss ratios, without being built.
func (v HistCurve) WriteJSON(w io.Writer, points int) error {
	p := v.picks(points)
	if p.n != math.MaxInt {
		return v.collect(p, p.n).WriteJSON(w)
	}
	q := p // a second, unstarted walk
	total := v.total()
	jw := newJSONWriter(w)
	jw.raw(jsonSizes + "[")
	for first := true; ; first = false {
		s, _, ok := p.next()
		if !ok {
			break
		}
		jw.uint(s, first)
	}
	jw.raw("]" + jsonMiss + "[")
	for first := true; ; first = false {
		_, at, ok := q.next()
		if !ok {
			break
		}
		jw.float(missAt(at, total), first)
	}
	jw.raw("]" + jsonTail(InterpStep))
	return jw.close()
}
