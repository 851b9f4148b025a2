package aet_test

import (
	"testing"

	"krr/internal/model"
	"krr/internal/mrc"
	"krr/internal/trace"
	"krr/internal/workload"
)

// These tests check the aet and statstack models against the exact
// olken model. internal/model imports aet, so they live outside the
// package.

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

// exactLRU is the exact object curve of tr, from the olken model.
func exactLRU(t *testing.T, tr *trace.Trace) *mrc.Curve {
	t.Helper()
	return replayed(t, "olken", model.Options{Seed: 1}, tr)
}

func TestMatchesExactLRUOnZipf(t *testing.T) {
	g := workload.NewZipf(3, 20000, 0.9, nil, 0)
	tr, _ := trace.Collect(g, 300000)

	est := replayed(t, "aet", model.Options{}, tr)

	truth := exactLRU(t, tr)

	sizes := mrc.EvenSizes(20000, 25)
	if mae := mrc.MAE(est, truth, sizes); mae > 0.03 {
		t.Fatalf("AET vs exact LRU MAE %v", mae)
	}
}

func TestMatchesExactLRUOnMSRLike(t *testing.T) {
	g := workload.NewMSRLike(5, workload.MSRParams{
		Blocks: 8000, HotWeight: 0.5, SeqWeight: 0.3, LoopWeight: 0.2,
		LoopLen: 2000, LoopRepeats: 2,
	})
	tr, _ := trace.Collect(g, 200000)

	sizes := mrc.EvenSizes(8000, 20)
	if mae := mrc.MAE(replayed(t, "aet", model.Options{}, tr), exactLRU(t, tr), sizes); mae > 0.05 {
		t.Fatalf("AET vs exact LRU on mixed trace MAE %v", mae)
	}
}

func TestStatStackMatchesExactLRU(t *testing.T) {
	g := workload.NewZipf(11, 20000, 0.9, nil, 0)
	tr, _ := trace.Collect(g, 300000)
	est := replayed(t, "statstack", model.Options{}, tr)

	truth := exactLRU(t, tr)

	sizes := mrc.EvenSizes(20000, 25)
	if mae := mrc.MAE(est, truth, sizes); mae > 0.03 {
		t.Fatalf("StatStack vs exact LRU MAE %v", mae)
	}
}
