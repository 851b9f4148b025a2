package krr_test

import (
	"fmt"
	"testing"

	"krr"
	"krr/internal/model"
	"krr/internal/mrc"
	"krr/internal/trace"
	"krr/internal/workload"
)

// TestAllLRUModelsAgree drives every exact-LRU MRC technique in the
// repository over one trace and checks each against the exact Olken
// stack — the §6.1 landscape, end to end.
func TestAllLRUModelsAgree(t *testing.T) {
	g := workload.NewMSRLike(9, workload.MSRParams{
		Blocks: 15000, HotWeight: 0.55, SeqWeight: 0.25, LoopWeight: 0.2,
		HotFraction: 0.15, HotAlpha: 0.9, LoopLen: 4000, LoopRepeats: 2,
	})
	tr, err := trace.Collect(g, 250000)
	if err != nil {
		t.Fatal(err)
	}

	exact, err := krr.BuildMRCWith("olken", tr.Reader(), model.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sizes := mrc.EvenSizes(15000, 20)

	models := []struct {
		name      string
		tolerance float64
		build     func() (*mrc.Curve, error)
	}{
		{"shards-fixed-rate", 0.03, func() (*mrc.Curve, error) {
			return krr.BuildMRCWith("shards", tr.Reader(), model.Options{Seed: 2, SamplingRate: 0.3})
		}},
		{"shards-fixed-size", 0.05, func() (*mrc.Curve, error) {
			return krr.BuildMRCWith("shards-fixedsize", tr.Reader(), model.Options{Seed: 3})
		}},
		{"aet", 0.05, func() (*mrc.Curve, error) {
			return krr.BuildMRCWith("aet", tr.Reader(), model.Options{})
		}},
		{"statstack", 0.05, func() (*mrc.Curve, error) {
			return krr.BuildMRCWith("statstack", tr.Reader(), model.Options{})
		}},
		{"counterstacks", 0.05, func() (*mrc.Curve, error) {
			return krr.BuildMRCWith("counterstacks", tr.Reader(), model.Options{})
		}},
		{"mimir", 0.04, func() (*mrc.Curve, error) {
			return krr.BuildMRCWith("mimir", tr.Reader(), model.Options{})
		}},
		{"krr-huge-k", 0.03, func() (*mrc.Curve, error) {
			// KRR converges to the LRU stack as K grows (§4.1).
			return krr.BuildMRCWith("krr", tr.Reader(), model.Options{K: 64, Seed: 5})
		}},
	}
	for _, m := range models {
		m := m
		t.Run(m.name, func(t *testing.T) {
			curve, err := m.build()
			if err != nil {
				t.Fatal(err)
			}
			mae := mrc.MAE(curve, exact, sizes)
			if mae > m.tolerance {
				t.Fatalf("%s MAE %v exceeds tolerance %v", m.name, mae, m.tolerance)
			}
			t.Log(fmt.Sprintf("%s MAE vs exact LRU: %.4f", m.name, mae))
		})
	}
}
