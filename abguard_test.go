// A/B benchmark-regression guard for the KRR hot path. Unlike the
// Go benchmark harness — which times each model in its own run, so a
// frequency shift or noisy neighbor between runs reads as a
// regression — this test interleaves short alternating measurement
// rounds of the models under one process, takes each round's paired
// ratio against aet, and tests the median of those ratios. Drift that
// hits one round hits both sides of its ratio, and a burst that lands
// on a minority of rounds moves the median not at all. The absolute
// bounds encode the repo's standing perf claims:
// krr-bucket within 5x of aet, and backward krr within its historical
// envelope of aet, on the Table 5.1 configuration.
//
// The guard is opt-in (set KRR_BENCH_GUARD=1) because wall-clock
// assertions are only meaningful on an otherwise idle machine;
// scripts/check.sh runs it as its own stage.
package krr_test

import (
	"os"
	"sort"
	"testing"
	"time"

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

// abModel is one competitor in the interleaved comparison.
type abModel struct {
	name string
	m    model.Model
	ns   []float64 // per-round ns/req
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
		return &abModel{name: name, m: m}
	}
	models := []*abModel{mk("aet"), mk("krr-bucket"), mk("krr")}

	// Warm-up: populate each model's working state so every timed
	// round measures steady-state cost.
	for _, am := range models {
		for _, r := range reqs {
			am.m.Process(r)
		}
	}

	// Interleaved rounds: model A chunk, model B chunk, ... repeated,
	// so slow drift (thermal, scheduler) lands on every model equally.
	off := 0
	for round := 0; round < abRounds; round++ {
		for _, am := range models {
			start := time.Now()
			for i := 0; i < abChunk; i++ {
				am.m.Process(reqs[(off+i)%len(reqs)])
			}
			am.ns = append(am.ns, float64(time.Since(start).Nanoseconds())/abChunk)
		}
		off += abChunk
	}

	bucket, krr := medianRatio(models[1], models[0]), medianRatio(models[2], models[0])
	t.Logf("median paired ratios over %d rounds: bucket/aet=%.2f krr/aet=%.2f", abRounds, bucket, krr)

	// Declared bounds, with headroom over the measured steady state
	// (~4.7x and ~50x when introduced): a breach means a real hot-path
	// regression, not measurement noise.
	if bucket > 5.0 {
		t.Errorf("krr-bucket median paired ratio %.2fx aet, bound 5x", bucket)
	}
	if krr > 65.0 {
		t.Errorf("krr median paired ratio %.2fx aet, bound 65x", krr)
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
