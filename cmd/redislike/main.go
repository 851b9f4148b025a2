// Command redislike runs the miniature Redis-compatible cache server
// used by the §5.7 validation: approximated LRU/LFU/random eviction
// with a 24-bit clock, an eviction pool and sampled eviction, over a
// minimal RESP protocol (PING, GET, SET, DEL, DBSIZE, INFO, FLUSHALL,
// CONFIG GET/SET maxmemory|maxmemory-samples, QUIT).
//
// Usage:
//
//	redislike -addr 127.0.0.1:7379 -maxmemory 104857600 -samples 5
//	redis-cli -p 7379 set foo barbarbar
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"

	"krr/internal/redislike"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:7379", "listen address")
		maxMem  = flag.Uint64("maxmemory", 0, "eviction threshold in bytes (0 = unlimited)")
		samples = flag.Int("samples", redislike.DefaultSamples, "maxmemory-samples (eviction sampling size K)")
		good    = flag.Bool("good-random", false, "use dictGetRandomKey-style unbiased sampling")
		policy  = flag.String("policy", "lru", "eviction policy: lru, lfu, random")
		seed    = flag.Uint64("seed", 1, "random seed")
	)
	flag.Parse()

	cfg := redislike.Config{MaxMemory: *maxMem, Samples: *samples, Seed: *seed}
	if *good {
		cfg.Sampling = redislike.SampleRandomKey
	}
	switch *policy {
	case "lru":
	case "lfu":
		cfg.Policy = redislike.PolicyLFU
	case "random":
		cfg.Policy = redislike.PolicyRandom
	default:
		fmt.Fprintf(os.Stderr, "redislike: unknown policy %q\n", *policy)
		os.Exit(2)
	}

	srv := redislike.NewServer(cfg)
	bound, err := srv.Listen(*addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "redislike: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("redislike: listening on %s (maxmemory=%d, samples=%d)\n", bound, *maxMem, *samples)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	fmt.Println("redislike: shutting down")
	srv.Close()
}
