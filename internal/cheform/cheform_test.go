package cheform

import (
	"math"
	"reflect"
	"testing"

	"krr/internal/hashing"
	"krr/internal/hll"
	"krr/internal/trace"
)

func get(key uint64) trace.Request { return trace.Request{Key: key, Size: 1, Op: trace.OpGet} }

func TestTopKExactWithinBudget(t *testing.T) {
	tk := newTopK(64)
	// 10 keys, key i observed 10·(i+1) times: fits the budget, so all
	// counts are exact with zero inherited error.
	for i := uint64(0); i < 10; i++ {
		for j := uint64(0); j < 10*(i+1); j++ {
			tk.Observe(i)
		}
	}
	got := tk.Guaranteed()
	want := []uint64{100, 90, 80, 70, 60, 50, 40, 30, 20, 10}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("guaranteed counts %v, want exact %v", got, want)
	}
}

// TestTopKChurnDistrusted: cyclic access over a keyspace larger than
// the counter budget leaves every counter dominated by inherited
// error; the trusted list must come back empty rather than reporting
// churn noise as heavy hitters.
func TestTopKChurnDistrusted(t *testing.T) {
	tk := newTopK(64)
	for round := 0; round < 50; round++ {
		for key := uint64(0); key < 100; key++ {
			tk.Observe(key)
		}
	}
	if got := tk.Guaranteed(); len(got) != 0 {
		t.Fatalf("churned sketch reported %d trusted counters: %v", len(got), got)
	}
}

func TestHLLEstimate(t *testing.T) {
	h := hll.New(hllPrecision)
	const n = 10_000
	for i := uint64(0); i < n; i++ {
		h.Add(hashing.Mix64(i))
		h.Add(hashing.Mix64(i)) // duplicates must not inflate the estimate
	}
	est := h.Estimate()
	if math.Abs(est-n) > 0.05*n {
		t.Fatalf("estimate %v for %d distinct keys (>5%% off)", est, n)
	}
}

func TestFitterFallbackAlpha(t *testing.T) {
	f, err := New(Config{DefaultAlpha: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	// Every key referenced exactly once: no fit is possible and the
	// configured default must be reported as a fallback.
	for i := uint64(0); i < 500; i++ {
		f.Process(get(i))
	}
	fit := f.Fit()
	if !fit.Fallback || fit.Alpha != 0.7 {
		t.Fatalf("want fallback to configured alpha 0.7, got %+v", fit)
	}
}

func TestFitterRecoversAlpha(t *testing.T) {
	f, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Zipf(1.0) by construction: key i referenced ⌊2000/(i+1)⌋ times.
	for i := uint64(0); i < 100; i++ {
		for j := uint64(0); j < 2000/(i+1); j++ {
			f.Process(get(i))
		}
	}
	fit := f.Fit()
	if fit.Fallback {
		t.Fatal("fit fell back on a clean power law")
	}
	if math.Abs(fit.Alpha-1.0) > 0.2 {
		t.Fatalf("fitted alpha %v, want ~1.0", fit.Alpha)
	}
	if math.Abs(fit.Distinct-100) > 5 {
		t.Fatalf("distinct estimate %v, want ~100", fit.Distinct)
	}
}

func TestFitterIgnoresDeletes(t *testing.T) {
	f, _ := New(Config{})
	g, _ := New(Config{})
	for i := uint64(0); i < 50; i++ {
		for j := uint64(0); j < 40; j++ {
			f.Process(get(i))
			g.Process(get(i))
			g.Process(trace.Request{Key: i, Op: trace.OpDelete})
		}
	}
	if f.Requests() != g.Requests() {
		t.Fatalf("deletes counted as requests: %d != %d", f.Requests(), g.Requests())
	}
	if !reflect.DeepEqual(f.Curve(1), g.Curve(1)) {
		t.Fatal("deletes perturbed the curve")
	}
}

func TestFitterDeterministicAndNonDestructive(t *testing.T) {
	build := func() *Fitter {
		f, _ := New(Config{})
		for round := 0; round < 30; round++ {
			for i := uint64(0); i < 2000; i++ {
				if i%7 != 0 {
					continue
				}
				f.Process(get(i))
			}
			f.Process(get(uint64(round % 3))) // a hot head
		}
		return f
	}
	a, b := build(), build()
	mid := a.Curve(1) // mid-read must not perturb later reads
	if !reflect.DeepEqual(a.Curve(1), b.Curve(1)) {
		t.Fatal("identical streams produced different curves")
	}
	if !reflect.DeepEqual(mid, a.Curve(1)) {
		t.Fatal("Curve() mutated fitter state")
	}
}

// TestCurveUniformStream pins the end-to-end pipeline on the analytic
// closed case: a uniform 100-key stream must come out as the
// miss(C) ≈ 1−C/N line with the cold-ratio floor at C = N.
func TestCurveUniformStream(t *testing.T) {
	f, _ := New(Config{})
	const keys, rounds = 100, 200
	for r := 0; r < rounds; r++ {
		for i := uint64(0); i < keys; i++ {
			f.Process(get(i))
		}
	}
	curve := f.Curve(1)
	if got := curve.Eval(50); math.Abs(got-0.5) > 0.05 {
		t.Errorf("miss(50) = %v, want ~0.5 on a uniform 100-key stream", got)
	}
	cold := float64(keys) / float64(keys*rounds)
	if got := curve.Eval(keys + 10); math.Abs(got-cold) > 0.01 {
		t.Errorf("miss beyond N = %v, want the cold ratio %v", got, cold)
	}
}

func TestEmptyFitterCurve(t *testing.T) {
	f, _ := New(Config{})
	curve := f.Curve(1)
	if len(curve.Sizes) != 1 || curve.Sizes[0] != 0 || curve.Miss[0] != 1 {
		t.Fatalf("empty stream curve %+v, want the single (0, 1) point", curve)
	}
}

func TestMemoryOverheadBounded(t *testing.T) {
	f, _ := New(Config{})
	if f.MemoryOverheadBytes() == 0 {
		t.Fatal("footprint must count the HLL registers even before traffic")
	}
	for i := uint64(0); i < 1_000_000; i++ {
		f.Process(get(i % 250_000))
	}
	fp := f.MemoryOverheadBytes()
	if fp == 0 || fp > 200_000 {
		t.Fatalf("footprint %d bytes: the analytic tier must stay O(1) (~tens of KB)", fp)
	}
}

func TestNewValidation(t *testing.T) {
	bad := []Config{
		{DefaultAlpha: -1},
		{DefaultAlpha: MaxAlpha + 1},
		{Heads: 2},
		{Points: 1},
		{Variant: Fagin + 1},
	}
	for _, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v) accepted an invalid config", cfg)
		}
	}
	if _, err := New(Config{}); err != nil {
		t.Errorf("zero config rejected: %v", err)
	}
}
