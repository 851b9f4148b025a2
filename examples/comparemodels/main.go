// Compare every MRC model in the repository on one workload: the
// exact-LRU techniques from related work (Olken stack, SHARDS, AET,
// Counter Stacks), the K-LRU-aware KRR model, and ground-truth
// simulation — making the paper's core point visible: on a
// K-sensitive trace, every LRU-only model shares the same systematic
// error for small K, and only KRR tracks the sampled cache.
package main

import (
	"fmt"
	"log"

	"krr"
	"krr/internal/trace"
)

func main() {
	const k = 4 // a small sampling size, where K-LRU differs most from LRU
	gen := krr.PresetReader("msr-web", 0.3, 7, false)
	tr, err := krr.Collect(gen, 500_000)
	if err != nil {
		log.Fatal(err)
	}
	sum, _ := trace.Summarize(tr.Reader())
	sizes := krr.EvenSizes(uint64(sum.DistinctObjects), 8)

	// Ground truth: simulated K-LRU.
	truth, err := krr.SimulateMRC(tr, k, sizes, 3, 0)
	if err != nil {
		log.Fatal(err)
	}

	// KRR: the K-LRU-aware model.
	krrCurve, err := krr.BuildMRC(tr.Reader(), krr.ModelOptions{K: k, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}

	// LRU-only techniques.
	exactLRU, err := krr.BuildMRCWith("olken", tr.Reader(), krr.ModelOptions{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	shardsCurve, err := krr.BuildMRCWith("shards", tr.Reader(), krr.ModelOptions{Seed: 2, SamplingRate: 0.1})
	if err != nil {
		log.Fatal(err)
	}
	aetCurve, err := krr.BuildMRCWith("aet", tr.Reader(), krr.ModelOptions{})
	if err != nil {
		log.Fatal(err)
	}

	csCurve, err := krr.BuildMRCWith("counterstacks", tr.Reader(), krr.ModelOptions{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("msr-web-like, %d requests, %d objects — modeling a K-LRU cache with K=%d\n\n",
		sum.Requests, sum.DistinctObjects, k)
	fmt.Println("model            | MAE vs simulated K-LRU | models")
	rows := []struct {
		name   string
		curve  *krr.Curve
		models string
	}{
		{"KRR (this paper)", krrCurve, "K-LRU, any K"},
		{"Olken exact LRU", exactLRU, "LRU only"},
		{"SHARDS", shardsCurve, "LRU only"},
		{"AET", aetCurve, "LRU only"},
		{"Counter Stacks", csCurve, "LRU only"},
	}
	for _, r := range rows {
		fmt.Printf("%-16s | %22.4f | %s\n", r.name, krr.MAE(r.curve, truth, sizes), r.models)
	}
	fmt.Println("\nOn a Type A (K-sensitive) trace, the LRU-only models share a systematic")
	fmt.Println("error against the sampled cache; KRR is the only one that tracks it.")
}
