// A/B benchmark-regression guard for the KRR hot path. Unlike the
// Go benchmark harness — which times each model in its own run, so a
// frequency shift or noisy neighbor between runs reads as a
// regression — this test interleaves short alternating measurement
// rounds of the models under one process, takes each round's paired
// ratio against a fixed yardstick, and tests the median of those
// ratios. Drift that hits one round hits both sides of its ratio, and
// a burst that lands on a minority of rounds moves the median not at
// all. The absolute bounds encode the repo's standing perf claims:
// krr-bucket within 5x of the yardstick, backward krr within its
// historical envelope of it, on the Table 5.1 configuration, and aet
// at most abAETBound of it.
//
// The yardstick is a frozen, test-only copy of the per-request path
// aet's model ran while its last-seen index was a Go map (see
// yardstick). The krr bounds were set against that path, so they keep
// their meaning however aet itself moves: with the map restored in
// aet, aet/yardstick reads 1.04 (1.00–1.07 over 20 runs), and
// krr/yardstick reads what krr/aet read before (median 35.5 against
// 33.2, ranges 32–39 and 29–38).
//
// The aet bound, 0.85, holds the key-table speed-up. Calibration, 20
// interleaved runs per tree on a 2-vCPU Xeon, Go 1.24.0: with aet's
// last-seen index on keytab.Table, aet/yardstick read a median of 0.70
// (0.62–0.73) and passed 20 of 20; a copy with aet's map restored read
// 1.04 (1.00–1.07) and tripped it in 20 of 20. The bound therefore
// trips at an aet slowdown of about 1.2x (0.85/0.70).
//
// The guard is opt-in (set KRR_BENCH_GUARD=1) because wall-clock
// assertions are only meaningful on an otherwise idle machine;
// scripts/check.sh runs it as its own stage.
package krr_test

import (
	"os"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"krr/internal/histogram"
	"krr/internal/model"
	"krr/internal/trace"
)

// abRounds and abChunk size the measurement: each model is timed
// abRounds times in alternation, abChunk requests per round. Many
// short rounds give the median many paired samples, so a noisy
// neighbour has to hit most of them to move it.
const (
	abRounds = 31
	abChunk  = 1 << 14
)

// abAETBound is the most aet may cost per request, as a multiple of
// the yardstick's; see the file header for its calibration.
const abAETBound = 0.85

// processor is what the guard times: one request at a time, through
// an interface call, as a model.Model takes them.
type processor interface {
	Process(trace.Request) error
}

// abModel is one competitor in the interleaved comparison.
type abModel struct {
	name string
	p    processor
	ns   []float64 // per-round ns/req
}

// yardstick is the guard's fixed denominator: a frozen copy of aet's
// model path as it stood with a Go map for its last-seen index — the
// stream adapter's two counters, then a map read, a histogram.Log.Add
// and a map assign per request. Do not speed it up: every bound below
// is a multiple of its cost.
type yardstick struct {
	seen, sampled atomic.Uint64
	lastSeen      map[uint64]uint64
	hist          *histogram.Log
	clock         uint64
	cold, reuses  uint64
}

func (y *yardstick) Process(req trace.Request) error {
	y.seen.Add(1)
	y.sampled.Add(1)
	y.clock++
	if req.Op == trace.OpDelete {
		delete(y.lastSeen, req.Key)
		return nil
	}
	if last, ok := y.lastSeen[req.Key]; ok {
		y.hist.Add(y.clock - last)
		y.reuses++
	} else {
		y.cold++
	}
	y.lastSeen[req.Key] = y.clock
	return nil
}

// medianRatio is the median over rounds of a's ns/req divided by
// base's in the same round.
func medianRatio(a, base *abModel) float64 {
	r := make([]float64, len(a.ns))
	for i := range r {
		r[i] = a.ns[i] / base.ns[i]
	}
	sort.Float64s(r)
	return r[len(r)/2]
}

// TestKRRHotPathABGuard holds the KRR hot-path speed ratios to their
// declared bounds with an interleaved A/B measurement.
func TestKRRHotPathABGuard(t *testing.T) {
	if os.Getenv("KRR_BENCH_GUARD") == "" {
		t.Skip("set KRR_BENCH_GUARD=1 to run the wall-clock A/B guard")
	}
	tr := benchTraceT(t, "msr-web", 1<<17)
	reqs := tr.Reqs

	mk := func(name string) *abModel {
		m, err := model.New(name, model.Options{Seed: 1, SamplingRate: 1})
		if err != nil {
			t.Fatal(err)
		}
		return &abModel{name: name, p: m}
	}
	yard := &abModel{name: "yardstick", p: &yardstick{lastSeen: make(map[uint64]uint64), hist: histogram.NewLog()}}
	models := []*abModel{yard, mk("aet"), mk("krr-bucket"), mk("krr")}

	// Warm-up: populate each model's working state so every timed
	// round measures steady-state cost.
	for _, am := range models {
		for _, r := range reqs {
			am.p.Process(r)
		}
	}

	// Interleaved rounds: model A chunk, model B chunk, ... repeated,
	// so slow drift (thermal, scheduler) lands on every model equally.
	off := 0
	for round := 0; round < abRounds; round++ {
		for _, am := range models {
			start := time.Now()
			for i := 0; i < abChunk; i++ {
				am.p.Process(reqs[(off+i)%len(reqs)])
			}
			am.ns = append(am.ns, float64(time.Since(start).Nanoseconds())/abChunk)
		}
		off += abChunk
	}

	aet, bucket, krr := medianRatio(models[1], yard), medianRatio(models[2], yard), medianRatio(models[3], yard)
	t.Logf("median paired ratios over %d rounds: aet/yardstick=%.3f bucket/yardstick=%.2f krr/yardstick=%.2f", abRounds, aet, bucket, krr)

	// Declared bounds, with headroom over the measured steady state
	// (~4.7x and ~50x when introduced): a breach means a real hot-path
	// regression, not measurement noise.
	if aet > abAETBound {
		t.Errorf("aet median paired ratio %.3fx yardstick, bound %.2fx", aet, abAETBound)
	}
	if bucket > 5.0 {
		t.Errorf("krr-bucket median paired ratio %.2fx yardstick, bound 5x", bucket)
	}
	if krr > 65.0 {
		t.Errorf("krr median paired ratio %.2fx yardstick, bound 65x", krr)
	}
}

// benchTraceT is benchTrace for tests.
func benchTraceT(t *testing.T, preset string, n int) *trace.Trace {
	t.Helper()
	tr, err := collectPreset(preset, n, false)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}
