package main

import (
	"math"
	"sort"
	"time"
)

// samples collects durations for percentile reporting. Percentiles are
// computed from every raw sample, never from histogram buckets, so a
// reported time carries all its measured digits.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d)) }

// ms returns the q-quantile in milliseconds.
func (s samples) ms(q float64) float64 { return quantile(s, q) / 1e6 }

// us returns the q-quantile in microseconds.
func (s samples) us(q float64) float64 { return quantile(s, q) / 1e3 }

// quantile interpolates linearly between closest ranks (the
// "inclusive" definition); 0 for no samples.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// quartiles returns Q1, median and Q3 by Python's
// statistics.quantiles(v, n=4) default ("exclusive") method — the
// definition the run-to-run spread check uses.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(j int) float64 {
		m := float64(n + 1)
		pos := float64(j) * m / 4
		i := max(1, min(int(math.Floor(pos)), n-1))
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return at(1), at(2), at(3)
}
