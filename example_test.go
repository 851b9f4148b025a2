package krr_test

import (
	"fmt"

	"krr"
)

// ExampleBuildMRC models a Redis-style K-LRU cache in one pass and
// reads the predicted miss ratio at a candidate capacity.
func ExampleBuildMRC() {
	gen := krr.PresetReader("loop", 0.02, 1, false) // 1000-object loop
	curve, err := krr.BuildMRC(krr.Limit(gen, 50_000), krr.ModelOptions{
		K:    1, // pure random replacement: KRR is exact here
		Seed: 7,
	})
	if err != nil {
		panic(err)
	}
	// Random replacement on a loop retains a useful fraction at half
	// the loop size (the fixed point of m = 1−e^(−2m) ≈ 0.80), where
	// exact LRU would miss everything.
	fmt.Printf("miss at half the loop: %.1f\n", curve.Eval(500))
	fmt.Printf("miss at the full loop: %.1f\n", curve.Eval(1000))
	// Output:
	// miss at half the loop: 0.8
	// miss at the full loop: 0.0
}

// ExampleNewModel shows streaming use of the KRR model with spatial
// sampling, read while the stream runs.
func ExampleNewModel() {
	m, err := krr.NewModel("krr", krr.ModelOptions{K: 10, Seed: 1, SamplingRate: 0.5})
	if err != nil {
		panic(err)
	}
	gen := krr.PresetReader("zipf", 0.02, 3, false)
	for i := 0; i < 100_000; i++ {
		req, _ := gen.Next()
		if err := m.Process(req); err != nil { // negligible overhead next to serving the request
			panic(err)
		}
	}
	snap := m.Snapshot() // Process stays legal afterwards
	fmt.Println("curve starts at miss ratio", snap.Object.Eval(0))
	fmt.Println("sampled a strict subset:", snap.Stats.Sampled < snap.Stats.Seen)
	// Output:
	// curve starts at miss ratio 1
	// sampled a strict subset: true
}

// ExampleKPrimeFor shows the paper's corrected stack exponent.
func ExampleKPrimeFor() {
	fmt.Printf("K=1  -> K' = %.2f (RR stack is already exact)\n", krr.KPrimeFor(1))
	fmt.Printf("K=10 -> K' = %.2f\n", krr.KPrimeFor(10))
	// Output:
	// K=1  -> K' = 1.00 (RR stack is already exact)
	// K=10 -> K' = 25.12
}

// ExampleMAE compares a model curve against ground-truth simulation —
// the paper's accuracy metric.
func ExampleMAE() {
	gen := krr.PresetReader("zipf", 0.01, 5, false)
	tr, _ := krr.Collect(gen, 40_000)

	model, _ := krr.BuildMRC(tr.Reader(), krr.ModelOptions{K: 5, Seed: 2})
	sizes := krr.EvenSizes(1000, 5)
	truth, _ := krr.SimulateMRC(tr, 5, sizes, 9, 2)

	fmt.Println("model tracks simulation:", krr.MAE(model, truth, sizes) < 0.05)
	// Output:
	// model tracks simulation: true
}
