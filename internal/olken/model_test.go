package olken_test

import (
	"testing"

	"krr/internal/histogram"
	"krr/internal/model"
	"krr/internal/mrc"
	"krr/internal/trace"
	"krr/internal/workload"
)

// The histograms and curves around the stack belong to the olken
// model; these tests hold that shell to the exact-LRU curve contracts.

// olkenCurve is the olken model's object curve over n requests of g.
func olkenCurve(t *testing.T, g trace.Reader, n int) *mrc.Curve {
	t.Helper()
	m, err := model.New("olken", model.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := model.ProcessAll(m, trace.LimitReader(g, n)); err != nil {
		t.Fatal(err)
	}
	return m.Snapshot().Object
}

func TestProfilerMRCOnLoop(t *testing.T) {
	// A cyclic loop over M objects under exact LRU misses everything
	// for any cache smaller than M and hits everything at M.
	const m = 100
	curve := olkenCurve(t, workload.NewLoop(m, nil), m*20)
	if miss := curve.Eval(m); miss > 0.06 {
		t.Fatalf("miss at full loop size = %v, want ~cold ratio", miss)
	}
	if miss := curve.Eval(m / 2); miss < 0.94 {
		t.Fatalf("miss at half loop size = %v, want ~1 (LRU loop pathology)", miss)
	}
}

func TestProfilerZipfMonotone(t *testing.T) {
	c := olkenCurve(t, workload.NewZipf(3, 5000, 1.0, nil, 0), 100000)
	for i := 1; i < c.Len(); i++ {
		if c.Miss[i] > c.Miss[i-1]+1e-12 {
			t.Fatal("exact LRU MRC must be non-increasing")
		}
	}
	// Sanity: a big cache has lower miss ratio than a tiny one.
	if c.Eval(5000) >= c.Eval(10) {
		t.Fatal("MRC not decreasing with size")
	}
}

func TestProfilerDeleteOp(t *testing.T) {
	m, err := model.New("olken", model.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range []trace.Request{
		{Key: 1, Size: 1, Op: trace.OpGet},
		{Key: 1, Size: 1, Op: trace.OpDelete},
		{Key: 1, Size: 1, Op: trace.OpGet}, // cold again after delete
	} {
		if err := m.Process(req); err != nil {
			t.Fatal(err)
		}
	}
	hist := histogram.NewDense(1024)
	if _, _, ok := m.ReadObjectHist(hist); !ok {
		t.Fatal("olken must expose its object histogram")
	}
	if hist.Cold() != 2 {
		t.Fatalf("cold = %d, want 2", hist.Cold())
	}
}
