package krr_test

import (
	"math"
	"runtime"
	"testing"
	"time"

	"krr"
)

func TestFacadeQuickstartFlow(t *testing.T) {
	gen := krr.PresetReader("msr-web", 0.02, 42, false)
	if gen == nil {
		t.Fatal("known preset returned nil")
	}
	curve, err := krr.BuildMRC(krr.Limit(gen, 30000), krr.ModelOptions{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if curve.Eval(0) != 1 {
		t.Fatal("empty cache must miss everything")
	}
	big, small := curve.Eval(curve.WSS()), curve.Eval(10)
	if big >= small {
		t.Fatalf("curve not decreasing: miss(wss)=%v miss(10)=%v", big, small)
	}
}

func TestFacadeUnknownPreset(t *testing.T) {
	if krr.PresetReader("no-such-preset", 1, 1, false) != nil {
		t.Fatal("unknown preset must return nil")
	}
	if len(krr.PresetNames()) < 20 {
		t.Fatal("preset registry unexpectedly small")
	}
}

func TestFacadeModelMatchesSimulation(t *testing.T) {
	gen := krr.PresetReader("zipf", 0.02, 7, false)
	tr, err := krr.Collect(gen, 40000)
	if err != nil {
		t.Fatal(err)
	}
	const k = 5
	model, err := krr.BuildMRC(tr.Reader(), krr.ModelOptions{K: k, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sizes := krr.EvenSizes(2000, 8)
	truth, err := krr.SimulateMRC(tr, k, sizes, 9, 4)
	if err != nil {
		t.Fatal(err)
	}
	if mae := krr.MAE(model, truth, sizes); mae > 0.03 {
		t.Fatalf("facade end-to-end MAE %v", mae)
	}
}

func TestFacadeCaches(t *testing.T) {
	c := krr.NewKLRUCache(10, 5, 1)
	for k := uint64(0); k < 100; k++ {
		c.Access(krr.Request{Key: k, Size: 200, Op: krr.OpGet})
	}
	if c.Len() != 10 {
		t.Fatalf("klru cache len %d", c.Len())
	}
	lru := krr.NewLRUCache(4)
	lru.Access(krr.Request{Key: 1, Size: 1})
	if !lru.Access(krr.Request{Key: 1, Size: 1}) {
		t.Fatal("lru must hit resident key")
	}
	bc := krr.NewKLRUByteCache(1000, 5, 1)
	bc.Access(krr.Request{Key: 1, Size: 600})
	bc.Access(krr.Request{Key: 2, Size: 600})
	if bc.UsedBytes() > 1000 {
		t.Fatal("byte cache exceeded capacity")
	}
}

func TestFacadeHelpers(t *testing.T) {
	if krr.KPrimeFor(1) != 1 {
		t.Fatal("KPrimeFor(1)")
	}
	if math.Abs(krr.KPrimeFor(10)-math.Pow(10, 1.4)) > 1e-9 {
		t.Fatal("KPrimeFor(10)")
	}
	if krr.SamplingRateFor(1_000_000_000) != krr.DefaultSamplingRate {
		t.Fatal("rate for huge workloads must be the default")
	}
	if krr.SamplingRateFor(100) != 1 {
		t.Fatal("tiny workloads must disable sampling")
	}
}

func TestFacadeVariableSizes(t *testing.T) {
	gen := krr.PresetReader("tw-26.0", 0.02, 5, true)
	m, err := krr.NewModel("krr", krr.ModelOptions{K: 8, Seed: 1, Bytes: krr.BytesSizeArray})
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := krr.Collect(gen, 30000)
	for _, req := range tr.Reqs {
		if err := m.Process(req); err != nil {
			t.Fatal(err)
		}
	}
	bc := m.Snapshot().Byte
	if bc == nil || bc.Eval(0) != 1 || bc.Len() < 3 {
		t.Fatal("byte curve malformed")
	}
}

func TestFacadeModelRegistry(t *testing.T) {
	models := krr.Models()
	if len(models) < 10 {
		t.Fatalf("registry has %d models, want >= 10", len(models))
	}
	tr, err := krr.Collect(krr.PresetReader("zipf", 0.05, 7, false), 20000)
	if err != nil {
		t.Fatal(err)
	}
	// Every registered model builds a curve through the facade.
	for _, info := range models {
		curve, err := krr.BuildMRCWith(info.Name, tr.Reader(), krr.ModelOptions{Seed: 3})
		if err != nil {
			t.Fatalf("BuildMRCWith(%s): %v", info.Name, err)
		}
		if curve.Eval(0) != 1 {
			t.Fatalf("%s: miss(0) = %v, want 1", info.Name, curve.Eval(0))
		}
	}
	// The alias and the sharded path work end to end.
	if _, err := krr.BuildMRCWith("lru", tr.Reader(), krr.ModelOptions{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	m, err := krr.NewModel("krr", krr.ModelOptions{K: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range tr.Reqs {
		if err := m.Process(req); err != nil {
			t.Fatal(err)
		}
	}
	if st := m.Stats(); st.Seen != uint64(tr.Len()) {
		t.Fatalf("Seen = %d, want %d", st.Seen, tr.Len())
	}
	if m.Snapshot().Object == nil {
		t.Fatal("nil curve")
	}
}

// TestBuildMRCWithReleasesWorkers: a sharded build joins its pipeline
// workers before it returns.
func TestBuildMRCWithReleasesWorkers(t *testing.T) {
	tr, err := krr.Collect(krr.PresetReader("zipf", 0.05, 7, false), 20000)
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	if _, err := krr.BuildMRCWith("krr", tr.Reader(), krr.ModelOptions{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after BuildMRCWith, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
