// Quickstart: model a Redis-style K-LRU cache (maxmemory-samples = 10)
// over a Zipfian workload and print the miss ratio curve — the
// one-pass alternative to simulating every candidate cache size.
package main

import (
	"fmt"
	"log"

	"krr"
)

func main() {
	// A Zipfian key-value workload: 100k objects, 500k requests.
	gen := krr.PresetReader("zipf", 1.0, 42, false)
	if gen == nil {
		log.Fatal("preset missing")
	}

	// One pass of KRR models a K-LRU cache at *every* size at once.
	curve, err := krr.BuildMRC(krr.Limit(gen, 500_000), krr.ModelOptions{
		K:    10, // Redis default maxmemory-samples
		Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("K-LRU (K=10) miss ratio curve:")
	fmt.Println("cache size (objects) | predicted miss ratio")
	for _, size := range krr.EvenSizes(curve.WSS(), 10) {
		fmt.Printf("%20d | %.4f\n", size, curve.Eval(size))
	}

	// The classic capacity-planning question: how much memory for a
	// target hit rate?
	target := 0.35
	for _, size := range krr.EvenSizes(curve.WSS(), 200) {
		if curve.Eval(size) <= target {
			fmt.Printf("\nsmallest cache with miss ratio <= %.2f: ~%d objects\n", target, size)
			break
		}
	}
}
