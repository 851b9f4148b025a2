package mimir_test

import (
	"testing"

	"krr/internal/mimir"
	"krr/internal/model"
	"krr/internal/mrc"
	"krr/internal/trace"
	"krr/internal/workload"
)

// This test checks mimir against the exact olken model.
// internal/model imports mimir, so it lives outside the package.

// exactLRU is the exact object curve of tr, from the olken model.
func exactLRU(t *testing.T, tr *trace.Trace) *mrc.Curve {
	t.Helper()
	m, err := model.New("olken", model.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := model.ProcessAll(m, tr.Reader()); err != nil {
		t.Fatal(err)
	}
	return m.ObjectMRC()
}

func TestMatchesExactLRUOnZipf(t *testing.T) {
	g := workload.NewZipf(3, 20000, 0.8, nil, 0)
	tr, _ := trace.Collect(g, 300000)

	s := mimir.New(mimir.DefaultBuckets)
	if err := s.ProcessAll(tr.Reader()); err != nil {
		t.Fatal(err)
	}
	est := s.MRC()

	truth := exactLRU(t, tr)

	sizes := mrc.EvenSizes(20000, 25)
	if mae := mrc.MAE(est, truth, sizes); mae > 0.03 {
		t.Fatalf("MIMIR vs exact LRU MAE %v", mae)
	}
}
