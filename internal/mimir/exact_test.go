package mimir_test

import (
	"testing"

	"krr/internal/model"
	"krr/internal/mrc"
	"krr/internal/trace"
	"krr/internal/workload"
)

// This test checks the mimir model against the exact olken model.
// internal/model imports mimir, so it lives outside the package.

// replayed is the object curve of the named model over tr.
func replayed(t *testing.T, name string, opts model.Options, tr *trace.Trace) *mrc.Curve {
	t.Helper()
	m, err := model.New(name, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := model.ProcessAll(m, tr.Reader()); err != nil {
		t.Fatal(err)
	}
	return m.Snapshot().Object
}

func TestMatchesExactLRUOnZipf(t *testing.T) {
	g := workload.NewZipf(3, 20000, 0.8, nil, 0)
	tr, _ := trace.Collect(g, 300000)

	est := replayed(t, "mimir", model.Options{}, tr)

	truth := replayed(t, "olken", model.Options{Seed: 1}, tr)

	sizes := mrc.EvenSizes(20000, 25)
	if mae := mrc.MAE(est, truth, sizes); mae > 0.03 {
		t.Fatalf("MIMIR vs exact LRU MAE %v", mae)
	}
}
