// Package aet implements the Average Eviction Time model (Hu et al.,
// USENIX ATC '16 / ACM TOS '18) — the reuse-time-based exact-LRU MRC
// technique the paper recommends over KRR when K >= 32, where K-LRU
// has converged to LRU (§5.3, §6.1).
//
// AET is a kinetic model: an LRU stack position advances toward
// eviction at speed P(t), the probability that a reuse interval
// exceeds age t. The average eviction time of a cache of size c is
// the T solving
//
//	∫₀ᵀ P(t) dt = c
//
// and the miss ratio at c is P(T): the fraction of reuses whose reuse
// time exceeds the average eviction time. Both follow from one pass
// that records the reuse-time histogram — no stack is maintained at
// all, which is why AET is so cheap.
package aet

import (
	"krr/internal/histogram"
	"krr/internal/keytab"
	"krr/internal/mrc"
	"krr/internal/sampling"
	"krr/internal/trace"
)

// Monitor collects the reuse-time distribution of a request stream.
type Monitor struct {
	filter   *sampling.Filter      // nil = monitor everything
	lastSeen *keytab.Table[uint64] // key -> clock at its last reference
	hist     *histogram.Log
	clock    uint64 // logical time in (unsampled) references
	cold     uint64
	reuses   uint64
}

// New returns a monitor. samplingRate in (0, 1) monitors only the
// spatially sampled keys (reuse times are still measured in full-
// stream references, so no rescaling is needed); 0 or 1 monitors all.
func New(samplingRate float64) *Monitor {
	m := &Monitor{
		lastSeen: keytab.New[uint64](),
		hist:     histogram.NewLog(),
	}
	if samplingRate > 0 && samplingRate < 1 {
		m.filter = sampling.NewRate(samplingRate)
	}
	return m
}

// Process feeds one request and reports whether it passed the spatial
// filter (always, when unsampled). Every request ticks the clock, so
// reuse times stay in full-stream references. Delete forgets the key
// (its next access is a cold miss).
func (m *Monitor) Process(req trace.Request) bool {
	m.clock++
	if m.filter != nil && !m.filter.Sampled(req.Key) {
		return false
	}
	if req.Op == trace.OpDelete {
		m.lastSeen.Del(req.Key)
		return true
	}
	// The clock is at least 1 here, so a stored reading is never the
	// table's empty value 0, and Swap's 0 means the key was unseen.
	if last := m.lastSeen.Swap(req.Key, m.clock); last != 0 {
		m.hist.Add(m.clock - last)
		m.reuses++
	} else {
		m.cold++
	}
	return true
}

// References returns the number of sampled references.
func (m *Monitor) References() uint64 { return m.reuses + m.cold }

// MemoryOverheadBytes returns the monitor's resident metadata: the
// last-seen table's backing arrays plus the reuse-time histogram.
func (m *Monitor) MemoryOverheadBytes() uint64 {
	return m.lastSeen.MemBytes() + m.hist.MemBytes()
}

// MRC solves the AET equation across the reuse-time histogram and
// returns the modeled exact-LRU miss ratio curve over object-count
// cache sizes.
//
// Numerically: walking t upward, P(t) is piecewise constant between
// recorded reuse times, so the integral accumulates in closed form
// per histogram bucket. Each bucket boundary yields one curve
// breakpoint (c = ∫₀ᵗ P, miss = P(t)).
func (m *Monitor) MRC() *mrc.Curve {
	total := float64(m.References())
	// P(t) is constant between recorded reuse times, so the curve is a
	// left-hold step function: for c between two breakpoints, the
	// average eviction time falls between the same two reuse times and
	// the miss ratio is the left breakpoint's.
	c := &mrc.Curve{Sizes: []uint64{0}, Miss: []float64{1}, Interp: mrc.InterpStep}
	if total == 0 {
		return c
	}
	// greater(t) = count of reuse intervals with reuse time > t, plus
	// cold references (infinite reuse time).
	greater := float64(m.reuses + m.cold)
	var integral float64 // ∫ P dt so far
	var lastT uint64
	m.hist.Buckets(func(t, count uint64) {
		p := greater / total
		integral += p * float64(t-lastT)
		lastT = t
		greater -= float64(count)
		missAfter := greater / total
		size := uint64(integral + 0.5)
		if n := len(c.Sizes); size <= c.Sizes[n-1] {
			c.Miss[n-1] = missAfter
			return
		}
		c.Sizes = append(c.Sizes, size)
		c.Miss = append(c.Miss, missAfter)
	})
	return c
}
