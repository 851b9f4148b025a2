// Online MRC monitoring: the paper's motivating application (§1).
// A production cache serves traffic while KRR profilers with spatial
// sampling shadow the stream at negligible cost. Periodically the
// operator asks: *for my current memory budget, which eviction
// sampling size K minimizes the miss ratio?* — the DLRU idea of
// dynamically configuring Redis's maxmemory-samples.
//
// The shadow profilers run through the model layer and are read with
// Snapshots, so the recommendation updates mid-stream while the
// profilers keep consuming traffic — the same flow cmd/
// krrserve serves over HTTP.
package main

import (
	"fmt"
	"log"

	"krr"
)

func main() {
	// A Type A workload: loops and scans make the choice of K matter.
	gen := krr.PresetReader("msr-web", 0.4, 11, false)

	const budgetObjects = 30_000
	candidateKs := []int{1, 2, 4, 8, 16, 32}

	// One lightweight spatially-sampled model per candidate K — each
	// tracks ~rate × distinct objects, cheap enough to run all six
	// online.
	rate := 0.05
	models := map[int]krr.Model{}
	for _, k := range candidateKs {
		m, err := krr.NewModel("krr", krr.ModelOptions{K: k, Seed: 5, SamplingRate: rate})
		if err != nil {
			log.Fatal(err)
		}
		models[k] = m
	}

	const window = 100_000
	const windows = 3
	fmt.Printf("shadow-profiling %d windows of %d requests at sampling rate %.2g...\n",
		windows, window, rate)
	for w := 1; w <= windows; w++ {
		for i := 0; i < window; i++ {
			req, err := gen.Next()
			if err != nil {
				log.Fatal(err)
			}
			// (A real deployment would serve the request here.)
			for _, m := range models {
				if err := m.Process(req); err != nil {
					log.Fatal(err)
				}
			}
		}
		// Mid-stream reading: a snapshot leaves the stream live, so the
		// next window's Process calls remain legal.
		report(w*window, budgetObjects, candidateKs, models)
	}
}

// report snapshots every candidate model and prints the per-K miss
// ratios at the budget, flagging the best choice.
func report(processed int, budget uint64, ks []int, models map[int]krr.Model) {
	miss := map[int]float64{}
	bestK, bestMiss := 0, 2.0
	// Decide the winner over all candidates first, then print — so the
	// marker lands on the true minimum rather than on every running
	// best seen in iteration order.
	for _, k := range ks {
		snap := models[k].Snapshot()
		miss[k] = snap.Object.Eval(budget)
		if miss[k] < bestMiss {
			bestK, bestMiss = k, miss[k]
		}
	}
	fmt.Printf("\nafter %d requests, predicted miss ratio at a %d-object budget:\n",
		processed, budget)
	for _, k := range ks {
		marker := ""
		if k == bestK {
			marker = "  <- best"
		}
		fmt.Printf("  K = %2d -> %.4f%s\n", k, miss[k], marker)
	}
	fmt.Printf("recommended maxmemory-samples: %d (predicted miss ratio %.4f)\n", bestK, bestMiss)
}
