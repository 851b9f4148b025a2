// Redis validation (§5.7): start the redislike server, replay a
// workload against it over RESP at several memory limits, and compare
// the engine's measured miss ratios with KRR's one-pass prediction.
package main

import (
	"fmt"
	"log"

	"krr"
	"krr/internal/redislike"
	"krr/internal/trace"
)

func main() {
	const k = redislike.DefaultSamples // Redis maxmemory-samples = 5
	gen := krr.PresetReader("msr-src2", 0.3, 9, false)
	tr, err := krr.Collect(gen, 200_000)
	if err != nil {
		log.Fatal(err)
	}
	sum, err := trace.Summarize(tr.Reader())
	if err != nil {
		log.Fatal(err)
	}

	// One-pass KRR prediction with spatial sampling.
	rate := krr.SamplingRateFor(sum.DistinctObjects)
	model, err := krr.BuildMRC(tr.Reader(), krr.ModelOptions{K: k, Seed: 2, SamplingRate: rate})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("workload: %d requests, %d distinct objects (KRR sampling rate %.3g)\n\n",
		sum.Requests, sum.DistinctObjects, rate)
	fmt.Println("objects budget | redislike miss | KRR predicted")

	const objCost = 200 + 48 // value + engine per-key overhead
	for _, budget := range krr.EvenSizes(uint64(sum.DistinctObjects), 6) {
		srv := redislike.NewServer(redislike.Config{
			MaxMemory: budget * objCost,
			Samples:   k,
			Seed:      budget,
		})
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		client, err := redislike.Dial(addr)
		if err != nil {
			log.Fatal(err)
		}

		var hits, total int
		for _, req := range tr.Reqs {
			total++
			if _, ok, err := client.Get(req.Key); err != nil {
				log.Fatal(err)
			} else if ok {
				hits++
			} else if err := client.Set(req.Key, 200); err != nil {
				log.Fatal(err)
			}
		}
		measured := 1 - float64(hits)/float64(total)
		client.Close()
		srv.Close()

		fmt.Printf("%14d | %14.4f | %13.4f\n", budget, measured, model.Eval(budget))
	}
	fmt.Println("\nKRR predicts the RESP-served engine's curve without running it at each size.")
}
