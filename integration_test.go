package krr_test

import (
	"fmt"
	"testing"

	"krr"
	"krr/internal/aet"
	"krr/internal/counterstacks"
	"krr/internal/mimir"
	"krr/internal/model"
	"krr/internal/mrc"
	"krr/internal/shards"
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
			s := shards.NewFixedSize(1.0, 4096, 3)
			if err := s.ProcessAll(tr.Reader()); err != nil {
				return nil, err
			}
			return s.MRC(), nil
		}},
		{"aet", 0.05, func() (*mrc.Curve, error) {
			m := aet.New(0)
			if err := m.ProcessAll(tr.Reader()); err != nil {
				return nil, err
			}
			return m.MRC(), nil
		}},
		{"statstack", 0.05, func() (*mrc.Curve, error) {
			m := aet.New(0)
			if err := m.ProcessAll(tr.Reader()); err != nil {
				return nil, err
			}
			return m.StatStackMRC(), nil
		}},
		{"counterstacks", 0.05, func() (*mrc.Curve, error) {
			cs := counterstacks.New(counterstacks.Config{DownsampleInterval: 500, MaxCounters: 128})
			if err := cs.ProcessAll(tr.Reader()); err != nil {
				return nil, err
			}
			return cs.MRC(), nil
		}},
		{"mimir", 0.04, func() (*mrc.Curve, error) {
			m := mimir.New(mimir.DefaultBuckets)
			if err := m.ProcessAll(tr.Reader()); err != nil {
				return nil, err
			}
			return m.MRC(), nil
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
