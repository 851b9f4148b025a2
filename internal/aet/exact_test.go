package aet_test

import (
	"testing"

	"krr/internal/aet"
	"krr/internal/model"
	"krr/internal/mrc"
	"krr/internal/trace"
	"krr/internal/workload"
)

// These tests check aet against the exact olken model. internal/model
// imports aet, so they live outside the package.

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
	g := workload.NewZipf(3, 20000, 0.9, nil, 0)
	tr, _ := trace.Collect(g, 300000)

	mon := aet.New(0)
	if err := mon.ProcessAll(tr.Reader()); err != nil {
		t.Fatal(err)
	}
	est := mon.MRC()

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

	mon := aet.New(0)
	mon.ProcessAll(tr.Reader())

	sizes := mrc.EvenSizes(8000, 20)
	if mae := mrc.MAE(mon.MRC(), exactLRU(t, tr), sizes); mae > 0.05 {
		t.Fatalf("AET vs exact LRU on mixed trace MAE %v", mae)
	}
}

func TestStatStackMatchesExactLRU(t *testing.T) {
	g := workload.NewZipf(11, 20000, 0.9, nil, 0)
	tr, _ := trace.Collect(g, 300000)
	mon := aet.New(0)
	mon.ProcessAll(tr.Reader())
	est := mon.StatStackMRC()

	truth := exactLRU(t, tr)

	sizes := mrc.EvenSizes(20000, 25)
	if mae := mrc.MAE(est, truth, sizes); mae > 0.03 {
		t.Fatalf("StatStack vs exact LRU MAE %v", mae)
	}
}
