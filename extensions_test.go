package krr_test

import (
	"testing"

	"krr"
)

func TestFacadeAET(t *testing.T) {
	gen := krr.PresetReader("zipf", 0.02, 3, false)
	tr, _ := krr.Collect(gen, 30000)
	c, err := krr.BuildMRCWith("aet", tr.Reader(), krr.ModelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Eval(10) <= c.Eval(2000) {
		t.Fatal("AET curve not decreasing")
	}
}

func TestFacadeDLRU(t *testing.T) {
	cache := krr.NewTunableKLRUCache(500, 32, 1)
	ctl, err := krr.NewDLRUController(krr.DLRUConfig{
		BudgetObjects: 500,
		Candidates:    []int{1, 32},
		Window:        5000,
		SamplingRate:  0.5,
		Seed:          1,
	}, cache)
	if err != nil {
		t.Fatal(err)
	}
	gen := krr.PresetReader("loop", 0.02, 3, false)
	if err := ctl.ProcessAll(krr.Limit(gen, 30000)); err != nil {
		t.Fatal(err)
	}
	if ctl.CurrentK() != 1 {
		t.Fatalf("controller should pick K=1 on a loop, got %d", ctl.CurrentK())
	}
}

func TestFacadeNSPAndOPT(t *testing.T) {
	gen := krr.PresetReader("zipf", 0.01, 3, false)
	tr, _ := krr.Collect(gen, 20000)

	lfu, err := krr.NewModel("lfu", krr.ModelOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range tr.Reqs {
		if err := lfu.Process(req); err != nil {
			t.Fatal(err)
		}
	}
	lfuCurve := lfu.Snapshot().Object
	if lfuCurve.Eval(10) <= lfuCurve.Eval(900) {
		t.Fatal("LFU curve not decreasing")
	}

	sizes := krr.EvenSizes(1000, 5)
	opt := krr.OPTMRC(tr, sizes, 2)
	truth, _ := krr.SimulateMRC(tr, 5, sizes, 7, 2)
	for i, s := range sizes {
		if opt.Miss[i] > truth.Eval(s)+1e-9 {
			t.Fatalf("OPT above K-LRU at %d", s)
		}
	}
}

func TestFacadeSampledPolicies(t *testing.T) {
	for _, prio := range []krr.EvictionPriority{
		krr.PriorityLRU, krr.PriorityLFU, krr.PriorityHyperbolic, krr.PriorityTTL,
	} {
		c := krr.NewSampledCache(krr.SampledCacheConfig{
			Capacity: krr.ObjectCapacity(100),
			K:        5,
			Priority: prio,
			Seed:     1,
		})
		for k := uint64(0); k < 1000; k++ {
			c.Access(krr.Request{Key: k, Size: 1})
		}
		if c.Len() != 100 {
			t.Fatalf("%s: len %d", prio.Name(), c.Len())
		}
	}
	bc := krr.NewSampledCache(krr.SampledCacheConfig{
		Capacity: krr.ByteCapacityOf(500),
		K:        3,
		Priority: krr.PriorityLRU,
		Seed:     1,
	})
	bc.Access(krr.Request{Key: 1, Size: 400})
	bc.Access(krr.Request{Key: 2, Size: 400})
	if bc.UsedBytes() > 500 {
		t.Fatal("byte capacity violated")
	}
}
