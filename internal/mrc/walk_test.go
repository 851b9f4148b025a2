package mrc

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"testing"

	"krr/internal/histogram"
)

// fromHistogramReference is the append-based FromHistogram the walker
// replaced, kept as the equivalence oracle.
func fromHistogramReference(h histogram.Histogram, scale float64) *Curve {
	total := h.Total()
	c := &Curve{Sizes: []uint64{0}, Miss: []float64{1}, Interp: InterpStep}
	if total == 0 {
		return c
	}
	var cum uint64
	h.Buckets(func(d, count uint64) {
		cum += count
		size := uint64(float64(d)*scale + 0.5)
		if size == 0 {
			size = 1
		}
		m := 1 - float64(cum)/float64(total)
		if n := len(c.Sizes); c.Sizes[n-1] == size {
			c.Miss[n-1] = m
			return
		}
		c.Sizes = append(c.Sizes, size)
		c.Miss = append(c.Miss, m)
	})
	return c
}

// downsampleReference is the Downsample the walker's picks mirror.
func downsampleReference(c *Curve, n int) *Curve {
	if n <= 0 || c.Len() <= n {
		return c
	}
	if n == 1 {
		last := c.Len() - 1
		return &Curve{Sizes: []uint64{c.Sizes[last]}, Miss: []float64{c.Miss[last]}, Interp: c.Interp}
	}
	out := &Curve{Interp: c.Interp}
	last := c.Len() - 1
	for i := 0; i < n; i++ {
		idx := i * last / (n - 1)
		if m := len(out.Sizes); m > 0 && out.Sizes[m-1] == c.Sizes[idx] {
			continue
		}
		out.Sizes = append(out.Sizes, c.Sizes[idx])
		out.Miss = append(out.Miss, c.Miss[idx])
	}
	return out
}

// encodingJSON is the bytes the encoding/json-based WriteJSON wrote.
func encodingJSON(t *testing.T, c *Curve) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(c); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// sameBits reports whether two curves match bit for bit.
func sameBits(a, b *Curve) bool {
	if a.Interp != b.Interp || len(a.Sizes) != len(b.Sizes) || len(a.Miss) != len(b.Miss) {
		return false
	}
	for i := range a.Sizes {
		if a.Sizes[i] != b.Sizes[i] || math.Float64bits(a.Miss[i]) != math.Float64bits(b.Miss[i]) {
			return false
		}
	}
	return true
}

// walkHistograms is the equivalence corpus: random dense histograms
// (sparse and dense, with and without cold misses), an empty one, a
// cold-only one, and one whose tail leaves miss ratios near 1e-7.
func walkHistograms(rng *rand.Rand) map[string]*histogram.Dense {
	hs := map[string]*histogram.Dense{
		"empty":     histogram.NewDense(0),
		"cold-only": histogram.NewDense(0),
		"tiny-miss": histogram.NewDense(0),
	}
	for i := 0; i < 5; i++ {
		hs["cold-only"].AddCold()
	}
	// 1e7 references, all but one at distance <= 3: the last
	// breakpoints' miss ratios are 1e-7 and 0.
	hs["tiny-miss"].AddN(1, 5_000_000)
	hs["tiny-miss"].AddN(3, 4_999_998)
	hs["tiny-miss"].AddN(9, 1)
	hs["tiny-miss"].AddCold()
	for i := 0; i < 12; i++ {
		h := histogram.NewDense(0)
		maxD := 1 + rng.Intn(5000)
		n := rng.Intn(20000)
		for j := 0; j < n; j++ {
			if rng.Intn(10) == 0 {
				h.AddCold()
				continue
			}
			// Skewed distances leave gaps and long zero runs.
			h.Add(uint64(1 + rng.Intn(1+rng.Intn(maxD))))
		}
		if i%3 == 0 {
			h.AddN(uint64(maxD), uint64(rng.Int63n(1<<40)))
		}
		hs[string(rune('a'+i))] = h
	}
	return hs
}

var walkScales = []float64{1e-4, 0.01, 0.3, 0.5, 1, 1.5, 2, 7.25, 123.456, 1e6}

func TestHistCurveMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for name, h := range walkHistograms(rng) {
		for _, scale := range walkScales {
			ref := fromHistogramReference(h, scale)
			v := HistCurve{H: h, Scale: scale}
			got := FromHistogram(h, scale)
			if !sameBits(got, ref) {
				t.Fatalf("%s scale %v: FromHistogram differs from reference", name, scale)
			}
			if cap(got.Sizes) != len(got.Sizes) || cap(got.Miss) != len(got.Miss) {
				t.Fatalf("%s scale %v: slices not sized exactly (%d/%d)", name, scale, len(got.Sizes), cap(got.Sizes))
			}
			if v.Len() != ref.Len() {
				t.Fatalf("%s scale %v: Len %d, want %d", name, scale, v.Len(), ref.Len())
			}
			wss := ref.WSS()
			for _, size := range []uint64{0, 1, 2, 3, wss / 3, wss / 2, wss - 1, wss, wss + 1, math.MaxUint64,
				uint64(rng.Int63n(int64(wss) + 2))} {
				if g, w := v.Eval(size), ref.Eval(size); math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%s scale %v: Eval(%d) = %v, want %v", name, scale, size, g, w)
				}
			}
			for _, n := range []int{-1, 0, 1, 2, 3, 7, 200, ref.Len() - 1, ref.Len(), ref.Len() + 1} {
				// Shortest float formatting round-trips exactly, so equal
				// JSON bytes mean bit-identical downsampled curves.
				want := downsampleReference(ref, n)
				if got := ref.Downsample(n); !sameBits(got, want) {
					t.Fatalf("%s scale %v: Curve.Downsample(%d) differs from reference", name, scale, n)
				}
				var b bytes.Buffer
				if err := v.WriteJSON(&b, n); err != nil {
					t.Fatal(err)
				}
				if wantJSON := encodingJSON(t, want); !bytes.Equal(b.Bytes(), wantJSON) {
					t.Fatalf("%s scale %v points %d: JSON differs\n got %.200s\nwant %.200s", name, scale, n, b.Bytes(), wantJSON)
				}
			}
		}
	}
}

func TestFromHistogramLogMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 8; i++ {
		h := histogram.NewLog()
		for j := rng.Intn(5000); j > 0; j-- {
			if rng.Intn(8) == 0 {
				h.AddCold()
				continue
			}
			h.Add(uint64(1 + rng.Int63n(1<<uint(1+rng.Intn(40)))))
		}
		for _, scale := range walkScales {
			got, want := FromHistogram(h, scale), fromHistogramReference(h, scale)
			if !sameBits(got, want) {
				t.Fatalf("log %d scale %v: FromHistogram differs from reference", i, scale)
			}
			if cap(got.Sizes) != len(got.Sizes) {
				t.Fatalf("log %d scale %v: slices not sized exactly", i, scale)
			}
		}
	}
}

func TestWriteJSONMatchesEncodingJSON(t *testing.T) {
	misses := []float64{
		0, 1, 1e-7, 1e-6, 9.99999e-7, 5e-324, 2.2250738585072014e-308, 1e-300,
		0.5, 1.0 / 3, 0.1, 123456789.125, 1e20, 1e21, 1.5e300, math.Copysign(0, -1), -1e-7,
	}
	curves := []*Curve{
		{},
		{Sizes: []uint64{}, Miss: []float64{}},
		{Sizes: []uint64{0}, Miss: nil, Interp: InterpStep},
		{Sizes: []uint64{0, 1, math.MaxUint64}, Miss: []float64{1, 0.25, 0}, Interp: InterpLinear},
	}
	sizes := make([]uint64, len(misses))
	for i := range sizes {
		sizes[i] = uint64(i) * 1_000_003
	}
	curves = append(curves, &Curve{Sizes: sizes, Miss: misses, Interp: InterpStep})
	// Long enough to cross several jsonChunk boundaries.
	rng := rand.New(rand.NewSource(9))
	long := &Curve{Interp: InterpStep}
	for i := 0; i < 50_000; i++ {
		long.Sizes = append(long.Sizes, uint64(i)*uint64(1+rng.Intn(1000)))
		long.Miss = append(long.Miss, rng.Float64()*math.Pow(10, float64(-rng.Intn(12))))
	}
	curves = append(curves, long)
	for i, c := range curves {
		var b bytes.Buffer
		if err := c.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		if want := encodingJSON(t, c); !bytes.Equal(b.Bytes(), want) {
			t.Fatalf("curve %d: JSON differs\n got %.300s\nwant %.300s", i, b.Bytes(), want)
		}
	}
	var nilCurve *Curve
	var b bytes.Buffer
	if err := nilCurve.WriteJSON(&b); err != nil || b.String() != "null\n" {
		t.Fatalf("nil curve: %q, %v", b.String(), err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		b.Reset()
		c := &Curve{Sizes: []uint64{0}, Miss: []float64{bad}}
		if err := c.WriteJSON(&b); err == nil || b.Len() != 0 {
			t.Fatalf("miss %v: wrote %q, err %v; want an error and no output", bad, b.String(), err)
		}
	}
}

// failWriter fails every write after the first.
type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	w.n++
	if w.n > 1 {
		return 0, errWrite
	}
	return len(p), nil
}

var errWrite = errors.New("write failed")

func TestWriteJSONReportsWriteError(t *testing.T) {
	h := histogram.NewDense(0)
	for d := uint64(1); d < 20_000; d++ {
		h.Add(d)
	}
	if err := (HistCurve{H: h, Scale: 1}).WriteJSON(&failWriter{}, 0); err != errWrite {
		t.Fatalf("HistCurve.WriteJSON error %v, want %v", err, errWrite)
	}
	if err := FromHistogram(h, 1).WriteJSON(&failWriter{}); err != errWrite {
		t.Fatalf("Curve.WriteJSON error %v, want %v", err, errWrite)
	}
}

func TestHistCurveEvalAllocFree(t *testing.T) {
	h := histogram.NewDense(0)
	for d := uint64(1); d < 5000; d++ {
		h.AddN(d, d%7)
	}
	v := HistCurve{H: h, Scale: 2}
	if n := testing.AllocsPerRun(100, func() { _ = v.Eval(4000) }); n != 0 {
		t.Fatalf("Eval allocates %v objects per call", n)
	}
}
