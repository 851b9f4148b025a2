package aet

import (
	"fmt"
	"testing"

	"krr/internal/histogram"
	"krr/internal/sampling"
	"krr/internal/trace"
	"krr/internal/xrand"
)

// refMonitor is the monitor as it stood with a Go map for its
// last-seen index, kept as a test-only reference: a map read, then a
// map assign, per reference.
type refMonitor struct {
	filter   *sampling.Filter
	lastSeen map[uint64]uint64
	hist     *histogram.Log
	clock    uint64
	cold     uint64
	reuses   uint64
}

func newRefMonitor(samplingRate float64) *refMonitor {
	m := &refMonitor{lastSeen: make(map[uint64]uint64), hist: histogram.NewLog()}
	if samplingRate > 0 && samplingRate < 1 {
		m.filter = sampling.NewRate(samplingRate)
	}
	return m
}

func (m *refMonitor) Process(req trace.Request) bool {
	m.clock++
	if m.filter != nil && !m.filter.Sampled(req.Key) {
		return false
	}
	if req.Op == trace.OpDelete {
		delete(m.lastSeen, req.Key)
		return true
	}
	if last, ok := m.lastSeen[req.Key]; ok {
		m.hist.Add(m.clock - last)
		m.reuses++
	} else {
		m.cold++
	}
	m.lastSeen[req.Key] = m.clock
	return true
}

// buckets lists a reuse-time histogram's (time, count) pairs.
func buckets(h *histogram.Log) [][2]uint64 {
	var out [][2]uint64
	h.Buckets(func(t, n uint64) { out = append(out, [2]uint64{t, n}) })
	return out
}

// refStream returns n requests over keys [0, keys): skewed gets and
// sets, with about 10% deletes, a third of them of keys the stream
// never references. Key 0 is the hottest key.
func refStream(seed uint64, n int, keys uint64) []trace.Request {
	r := xrand.New(seed)
	reqs := make([]trace.Request, n)
	for i := range reqs {
		// The minimum of two uniform draws skews toward small keys.
		key := min(r.Uint64n(keys), r.Uint64n(keys))
		op := trace.OpGet
		switch d := r.Uint64n(30); {
		case d < 2:
			op = trace.OpDelete
		case d < 3:
			op, key = trace.OpDelete, keys+r.Uint64n(keys)
		case d < 6:
			op = trace.OpSet
		}
		reqs[i] = trace.Request{Key: key, Op: op, Size: 1}
	}
	return reqs
}

// TestMonitorMatchesMapReference holds the monitor to the map-based
// reference: the same admissions, and identical histogram buckets,
// cold and reuse counts, on streams with deletes (of present and
// absent keys), key 0, and spatial sampling at rate 0.1.
func TestMonitorMatchesMapReference(t *testing.T) {
	for _, rate := range []float64{0, 0.1} {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("rate=%g/seed=%d", rate, seed), func(t *testing.T) {
				m, ref := New(rate), newRefMonitor(rate)
				zero := 0
				for i, req := range refStream(seed, 200_000, 20_000) {
					if got, want := m.Process(req), ref.Process(req); got != want {
						t.Fatalf("request %d (%+v): Process = %v, reference %v", i, req, got, want)
					}
					if req.Key == 0 && req.Op != trace.OpDelete {
						zero++
					}
				}
				if zero == 0 {
					t.Fatal("stream never references key 0")
				}
				if m.cold != ref.cold || m.reuses != ref.reuses {
					t.Fatalf("cold %d reuses %d, reference cold %d reuses %d", m.cold, m.reuses, ref.cold, ref.reuses)
				}
				if m.lastSeen.Len() != len(ref.lastSeen) {
					t.Fatalf("%d keys tracked, reference %d", m.lastSeen.Len(), len(ref.lastSeen))
				}
				got, want := buckets(m.hist), buckets(ref.hist)
				if len(got) != len(want) {
					t.Fatalf("%d histogram buckets, reference %d", len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("bucket %d: (time, count) = %v, reference %v", i, got[i], want[i])
					}
				}
			})
		}
	}
}
