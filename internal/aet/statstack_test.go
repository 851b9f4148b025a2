package aet

import (
	"testing"

	"krr/internal/mrc"
	"krr/internal/workload"
)

func TestStatStackLoopExact(t *testing.T) {
	const m = 300
	mon := New(0)
	g := workload.NewLoop(m, nil)
	feed(mon, g, m*20)
	c := mon.StatStackMRC()
	if c.Eval(m/2) < 0.9 {
		t.Fatalf("miss(M/2) = %v, want ~1", c.Eval(m/2))
	}
	if c.Eval(m+2) > 0.1 {
		t.Fatalf("miss(M) = %v, want ~cold", c.Eval(m+2))
	}
}

func TestStatStackAgreesWithAET(t *testing.T) {
	// Two estimators over one histogram must agree closely.
	g := workload.NewMSRLike(5, workload.MSRParams{
		Blocks: 6000, HotWeight: 0.6, SeqWeight: 0.2, LoopWeight: 0.2,
		LoopLen: 1500, LoopRepeats: 2,
	})
	mon := New(0)
	feed(mon, g, 150000)
	sizes := mrc.EvenSizes(6000, 20)
	if mae := mrc.MAE(mon.MRC(), mon.StatStackMRC(), sizes); mae > 0.03 {
		t.Fatalf("AET vs StatStack MAE %v", mae)
	}
}

func TestStatStackEmpty(t *testing.T) {
	if New(0).StatStackMRC().Eval(5) != 1 {
		t.Fatal("empty monitor must be all-miss")
	}
}
