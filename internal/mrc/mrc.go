// Package mrc defines the Miss Ratio Curve type produced by every
// model and simulator in this repository, plus the error metric used
// throughout the paper's evaluation (mean absolute error across a set
// of evaluated cache sizes, §5.3).
//
// A Curve maps cache size — in objects for fixed-size workloads, in
// bytes for variable-size workloads — to miss ratio. Curves are
// represented as sorted breakpoints and evaluated with linear
// interpolation, which is exactly how the paper turns a finite set of
// simulated sizes into a curve (§5.1).
package mrc

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"krr/internal/histogram"
)

// Interp selects how Eval behaves between breakpoints.
type Interp uint8

const (
	// InterpLinear joins breakpoints with straight lines — appropriate
	// for curves sampled at a few simulated cache sizes (§5.1).
	InterpLinear Interp = iota
	// InterpStep holds the value of the breakpoint at or below the
	// queried size — exact for histogram-derived curves, where the
	// miss ratio is constant between consecutive observed distances.
	InterpStep
)

// Curve is a miss-ratio curve: Miss[i] is the miss ratio of a cache of
// capacity Sizes[i]. Sizes is strictly increasing.
type Curve struct {
	Sizes  []uint64
	Miss   []float64
	Interp Interp
}

// FromPointsTolerance is the float-error budget FromPoints forgives:
// miss ratios within this distance outside [0, 1] are clamped to the
// nearest bound rather than rejected. Models that rescale histogram
// weights (sampling-rate corrections, sharded merges) can accumulate
// one-ulp drift like 1.0000000001, which is noise, not a bug.
const FromPointsTolerance = 1e-9

// FromPoints builds a curve from parallel slices, sorting by size and
// dropping duplicate sizes (keeping the last). Miss ratios within
// FromPointsTolerance outside [0, 1] are clamped; it panics on length
// mismatch or a genuinely out-of-range miss ratio.
func FromPoints(sizes []uint64, miss []float64) *Curve {
	if len(sizes) != len(miss) {
		panic("mrc: FromPoints length mismatch")
	}
	type pt struct {
		s uint64
		m float64
	}
	pts := make([]pt, len(sizes))
	for i := range sizes {
		m := miss[i]
		switch {
		case m >= 0 && m <= 1:
		case m < 0 && m >= -FromPointsTolerance:
			m = 0
		case m > 1 && m <= 1+FromPointsTolerance:
			m = 1
		default:
			panic(fmt.Sprintf("mrc: miss ratio %v out of [0,1]", m))
		}
		pts[i] = pt{sizes[i], m}
	}
	sort.SliceStable(pts, func(i, j int) bool { return pts[i].s < pts[j].s })
	c := &Curve{}
	for _, p := range pts {
		if n := len(c.Sizes); n > 0 && c.Sizes[n-1] == p.s {
			c.Miss[n-1] = p.m
			continue
		}
		c.Sizes = append(c.Sizes, p.s)
		c.Miss = append(c.Miss, p.m)
	}
	return c
}

// FromHistogram converts a stack-distance histogram into a curve.
//
// scale rescales distances to cache sizes: pass 1 for an unsampled
// stream, or 1/R when the histogram was collected under spatial
// sampling with rate R (a sampled stack distance d stands for d/R
// unsampled objects or bytes, §2.4).
//
// The curve starts at (0, 1): an empty cache misses everything. Each
// histogram bucket at distance d contributes a breakpoint at size
// d*scale whose miss ratio counts all references with distance > d
// plus cold misses.
func FromHistogram(h histogram.Histogram, scale float64) *Curve {
	if d, ok := h.(*histogram.Dense); ok {
		return HistCurve{H: d, Scale: scale}.Curve()
	}
	if scale <= 0 {
		panic("mrc: non-positive scale")
	}
	// Other representations fold their Buckets by the same rule as
	// HistCurve's walk: one pass to count the breakpoints, one to fill
	// exact-size slices.
	fold := func(emit func(size, at uint64)) {
		var psize, pat, cum uint64
		h.Buckets(func(d, count uint64) {
			cum += count
			if s := bucketSize(d, scale); s != psize {
				emit(psize, pat)
				psize = s
			}
			pat = cum
		})
		emit(psize, pat)
	}
	n := 0
	fold(func(uint64, uint64) { n++ })
	c := &Curve{Sizes: make([]uint64, 0, n), Miss: make([]float64, 0, n), Interp: InterpStep}
	total := float64(h.Total())
	fold(func(size, at uint64) {
		c.Sizes = append(c.Sizes, size)
		c.Miss = append(c.Miss, missAt(at, total))
	})
	return c
}

// Len returns the number of breakpoints.
func (c *Curve) Len() int { return len(c.Sizes) }

// WSS returns the largest breakpoint size — for a one-pass stack model
// this is (approximately) the working-set size, beyond which the miss
// ratio is the cold-miss ratio.
func (c *Curve) WSS() uint64 {
	if len(c.Sizes) == 0 {
		return 0
	}
	return c.Sizes[len(c.Sizes)-1]
}

// Eval returns the miss ratio at an arbitrary cache size by linear
// interpolation between surrounding breakpoints. Sizes before the
// first breakpoint evaluate to 1 (or the first value if it has size
// 0); sizes beyond the last breakpoint evaluate to the final value.
func (c *Curve) Eval(size uint64) float64 {
	n := len(c.Sizes)
	if n == 0 {
		return 1
	}
	if size < c.Sizes[0] {
		// Strictly before the first breakpoint: a cache smaller than
		// any observed size misses everything. (Only reachable when
		// Sizes[0] > 0, i.e. curves built by FromPoints; histogram
		// curves always start at size 0.)
		return 1
	}
	if size == c.Sizes[0] {
		return c.Miss[0]
	}
	if size >= c.Sizes[n-1] {
		return c.Miss[n-1]
	}
	// Find first breakpoint >= size.
	i := sort.Search(n, func(i int) bool { return c.Sizes[i] >= size })
	if c.Sizes[i] == size {
		return c.Miss[i]
	}
	lo, hi := i-1, i
	if c.Interp == InterpStep {
		return c.Miss[lo]
	}
	span := float64(c.Sizes[hi] - c.Sizes[lo])
	frac := float64(size-c.Sizes[lo]) / span
	return c.Miss[lo] + frac*(c.Miss[hi]-c.Miss[lo])
}

// EvalMany evaluates the curve at each size.
func (c *Curve) EvalMany(sizes []uint64) []float64 {
	out := make([]float64, len(sizes))
	for i, s := range sizes {
		out[i] = c.Eval(s)
	}
	return out
}

// MAE returns the mean absolute error between two curves evaluated at
// the given cache sizes — the paper's accuracy metric (§5.3).
func MAE(a, b *Curve, at []uint64) float64 {
	if len(at) == 0 {
		return 0
	}
	var sum float64
	for _, s := range at {
		d := a.Eval(s) - b.Eval(s)
		if d < 0 {
			d = -d
		}
		sum += d
	}
	return sum / float64(len(at))
}

// EvenSizes returns n cache sizes evenly distributed over (0, wss],
// the paper's choice of evaluation points (§5.3 uses 40, §5.5 uses 25).
func EvenSizes(wss uint64, n int) []uint64 {
	if n <= 0 || wss == 0 {
		return nil
	}
	out := make([]uint64, 0, n)
	for i := 1; i <= n; i++ {
		s := uint64(float64(wss) * float64(i) / float64(n))
		if s == 0 {
			s = 1
		}
		if len(out) > 0 && out[len(out)-1] == s {
			continue
		}
		out = append(out, s)
	}
	return out
}

// curveJSON is the stable JSON shape of a Curve.
type curveJSON struct {
	Sizes  []uint64  `json:"sizes"`
	Miss   []float64 `json:"miss"`
	Interp string    `json:"interp"`
}

// interpName is the JSON tag of an interpolation mode.
func interpName(i Interp) string {
	if i == InterpStep {
		return "step"
	}
	return "linear"
}

// MarshalJSON encodes the curve with a readable interpolation tag.
func (c *Curve) MarshalJSON() ([]byte, error) {
	return json.Marshal(curveJSON{Sizes: c.Sizes, Miss: c.Miss, Interp: interpName(c.Interp)})
}

// UnmarshalJSON decodes a curve, validating monotone sizes and
// miss-ratio bounds.
func (c *Curve) UnmarshalJSON(data []byte) error {
	var cj curveJSON
	if err := json.Unmarshal(data, &cj); err != nil {
		return err
	}
	if len(cj.Sizes) != len(cj.Miss) {
		return fmt.Errorf("mrc: sizes/miss length mismatch %d/%d", len(cj.Sizes), len(cj.Miss))
	}
	for i := range cj.Sizes {
		if i > 0 && cj.Sizes[i] <= cj.Sizes[i-1] {
			return fmt.Errorf("mrc: sizes not strictly increasing at %d", i)
		}
		if cj.Miss[i] < 0 || cj.Miss[i] > 1 {
			return fmt.Errorf("mrc: miss ratio %v out of [0,1]", cj.Miss[i])
		}
	}
	c.Sizes, c.Miss = cj.Sizes, cj.Miss
	switch cj.Interp {
	case "step":
		c.Interp = InterpStep
	case "linear", "":
		c.Interp = InterpLinear
	default:
		return fmt.Errorf("mrc: unknown interp %q", cj.Interp)
	}
	return nil
}

// ReadJSON decodes a curve written by WriteJSON.
func ReadJSON(r io.Reader) (*Curve, error) {
	var c Curve
	if err := json.NewDecoder(r).Decode(&c); err != nil {
		return nil, err
	}
	return &c, nil
}

// WriteCSV emits "size,missratio" lines.
func (c *Curve) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for i := range c.Sizes {
		if _, err := fmt.Fprintf(bw, "%d,%.6f\n", c.Sizes[i], c.Miss[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Downsample returns a curve with at most n breakpoints, preserving
// the first and last, for compact plotting. n == 1 keeps only the
// last breakpoint (the working-set-size / cold-miss point).
func (c *Curve) Downsample(n int) *Curve {
	if n <= 0 || c.Len() <= n {
		return c
	}
	out := &Curve{Sizes: make([]uint64, 0, n), Miss: make([]float64, 0, n), Interp: c.Interp}
	last := c.Len() - 1
	for i := 0; i < n; i++ {
		idx := downsampleIndex(i, n, last)
		if m := len(out.Sizes); m > 0 && out.Sizes[m-1] == c.Sizes[idx] {
			continue
		}
		out.Sizes = append(out.Sizes, c.Sizes[idx])
		out.Miss = append(out.Miss, c.Miss[idx])
	}
	return out
}
