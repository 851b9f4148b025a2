// Benchmarks mirroring the paper's evaluation: one benchmark (or
// group) per table and figure, measuring the per-request cost of the
// pipeline that regenerates it. The full tables/figures themselves are
// produced by `go run ./cmd/experiments -run all`; these benches pin
// the runtime claims (Tables 5.3, 5.4; Figures 5.4) and exercise every
// other experiment's hot path under the Go benchmark harness.
package krr_test

import (
	"fmt"
	"testing"

	"krr/internal/core"
	"krr/internal/model"
	"krr/internal/redislike"
	"krr/internal/simulator"
	"krr/internal/trace"
	"krr/internal/workload"
)

// collectPreset materializes n requests of a preset at the benchmark
// scale (shared with the A/B guard in abguard_test.go).
func collectPreset(preset string, n int, variable bool) (*trace.Trace, error) {
	p, ok := workload.ByName(preset)
	if !ok {
		return nil, fmt.Errorf("unknown preset %s", preset)
	}
	return trace.Collect(p.New(0.1, 42, variable), n)
}

// benchTrace materializes a preset once per benchmark binary run.
func benchTrace(b *testing.B, preset string, n int, variable bool) *trace.Trace {
	b.Helper()
	tr, err := collectPreset(preset, n, variable)
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// newModel builds a registered model for a benchmark.
func newModel(b *testing.B, name string, opts model.Options) model.Model {
	b.Helper()
	m, err := model.New(name, opts)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// replayModel is replay through a model's Process.
func replayModel(b *testing.B, tr *trace.Trace, m model.Model) {
	b.Helper()
	replay(b, tr, func(r trace.Request) { m.Process(r) })
}

// replay feeds b.N requests (cycling the trace) into process. Every
// replay-driven benchmark reports allocs/op: a steady-state model's
// hot path should not allocate, and the counter catches one that
// starts to.
func replay(b *testing.B, tr *trace.Trace, process func(trace.Request)) {
	b.Helper()
	reqs := tr.Reqs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		process(reqs[i%len(reqs)])
	}
}

// --- Fig 1.1 / Fig 5.2: ground-truth K-LRU simulation cost ----------

func BenchmarkFig1_1_KLRUSimulation(b *testing.B) {
	for _, k := range []int{1, 4, 32} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			tr := benchTrace(b, "msr-web", 1<<17, false)
			cache := simulator.NewKLRU(simulator.ObjectCapacity(10000), k, true, 1)
			replay(b, tr, func(r trace.Request) { cache.Access(r) })
		})
	}
}

func BenchmarkFig5_2_ExactLRUStack(b *testing.B) {
	tr := benchTrace(b, "msr-web", 1<<17, false)
	replayModel(b, tr, newModel(b, "olken", model.Options{Seed: 1}))
}

// --- Table 5.1 / Fig 5.1: the KRR modeling pipeline ------------------

func BenchmarkTable5_1_KRRModel(b *testing.B) {
	for _, k := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			tr := benchTrace(b, "msr-web", 1<<17, false)
			replayModel(b, tr, newModel(b, "krr", model.Options{K: k, Seed: 1}))
		})
	}
}

func BenchmarkFig5_1_KRRSpatial(b *testing.B) {
	tr := benchTrace(b, "msr-src1", 1<<17, false)
	replayModel(b, tr, newModel(b, "krr", model.Options{K: 4, Seed: 1, SamplingRate: 0.01}))
}

// --- Table 5.2 / Fig 5.3: variable-object-size models ----------------

func BenchmarkTable5_2_VarKRR(b *testing.B) {
	tr := benchTrace(b, "tw-26.0", 1<<17, true)
	replayModel(b, tr, newModel(b, "krr", model.Options{K: 8, Seed: 1, Bytes: model.BytesSizeArray}))
}

func BenchmarkFig5_3_UniKRR(b *testing.B) {
	tr := benchTrace(b, "msr-web", 1<<17, true)
	replayModel(b, tr, newModel(b, "krr", model.Options{K: 8, Seed: 1, Bytes: model.BytesUniform}))
}

func BenchmarkFig5_3_VarKRRFenwick(b *testing.B) {
	tr := benchTrace(b, "msr-web", 1<<17, true)
	replayModel(b, tr, newModel(b, "krr", model.Options{K: 8, Seed: 1, Bytes: model.BytesFenwick}))
}

// --- Table 5.3: stack update efficiency (the headline speedups) ------

func table53Trace(b *testing.B) *trace.Trace {
	return benchTrace(b, "msr-src1", 1<<17, false)
}

func BenchmarkTable5_3_Simulation(b *testing.B) {
	tr := table53Trace(b)
	cache := simulator.NewKLRU(simulator.ObjectCapacity(20000), 5, true, 1)
	replay(b, tr, func(r trace.Request) { cache.Access(r) })
}

func BenchmarkTable5_3_BasicStackLinear(b *testing.B) {
	tr := table53Trace(b)
	replayModel(b, tr, newModel(b, "krr-linear", model.Options{K: 5, Seed: 1}))
}

func BenchmarkTable5_3_TopDown(b *testing.B) {
	tr := table53Trace(b)
	replayModel(b, tr, newModel(b, "krr-topdown", model.Options{K: 5, Seed: 1}))
}

func BenchmarkTable5_3_Backward(b *testing.B) {
	tr := table53Trace(b)
	replayModel(b, tr, newModel(b, "krr", model.Options{K: 5, Seed: 1}))
}

func BenchmarkTable5_3_TopDownSpatial(b *testing.B) {
	tr := table53Trace(b)
	replayModel(b, tr, newModel(b, "krr-topdown", model.Options{K: 5, Seed: 1, SamplingRate: 0.01}))
}

func BenchmarkTable5_3_BackwardSpatial(b *testing.B) {
	tr := table53Trace(b)
	replayModel(b, tr, newModel(b, "krr", model.Options{K: 5, Seed: 1, SamplingRate: 0.01}))
}

// --- Sharded pipeline: W-way hash-partitioned KRR --------------------

// BenchmarkShardedKRR drives the sharded pipeline at several worker
// counts over the Table 5.1 configuration (msr-web, K=8). Compare
// against BenchmarkTable5_1_KRRModel/K=8 for the serial baseline; the
// timed region includes routing, channel hand-off and the final drain
// (Close), so ns/op is true end-to-end cost per request.
func BenchmarkShardedKRR(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("W=%d", w), func(b *testing.B) {
			tr := benchTrace(b, "msr-web", 1<<17, false)
			sp, err := model.NewSharded("krr", w, model.Options{K: 8, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			replay(b, tr, func(r trace.Request) { sp.Process(r) })
			sp.Close()
		})
	}
}

// --- Model registry: per-request cost of every technique -------------

// BenchmarkModels replays the Table 5.1 configuration (msr-web,
// unsampled) through every registered model, one sub-benchmark per
// registry entry, so cross-technique ns/req comparisons come from one
// harness (results/models_bench.md). The timed loop is Process only;
// curve construction is excluded.
func BenchmarkModels(b *testing.B) {
	for _, info := range model.All() {
		b.Run(info.Name, func(b *testing.B) {
			tr := benchTrace(b, "msr-web", 1<<17, false)
			replayModel(b, tr, newModel(b, info.Name, model.Options{Seed: 1, SamplingRate: 1}))
		})
	}
}

// BenchmarkKRRBucket sweeps the bucketized stack's growth ratio over
// the Table 5.1 configuration — the cost side of the accuracy-vs-cost
// frontier in results/models_bench.md (TestDifferentialBucketRatios
// pins the accuracy side). Larger ratios mean fewer buckets and fewer
// victim rotations per reference.
func BenchmarkKRRBucket(b *testing.B) {
	for _, ratio := range []float64{1.25, 1.5, 2.0} {
		b.Run(fmt.Sprintf("ratio=%v", ratio), func(b *testing.B) {
			tr := benchTrace(b, "msr-web", 1<<17, false)
			replayModel(b, tr, newModel(b, "krr-bucket", model.Options{Seed: 1, SamplingRate: 1, BucketRatio: ratio}))
		})
	}
}

// --- Fig 5.4: update overhead growth with K --------------------------

func BenchmarkFig5_4_BackwardByK(b *testing.B) {
	for _, k := range []int{1, 2, 4, 8, 16, 32} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			tr := benchTrace(b, "msr-web", 1<<17, false)
			// The bare stack: swaps/update is a stack property.
			st := core.NewStack(core.KPrimeFor(k), 1)
			replay(b, tr, func(r trace.Request) { st.Reference(r.Key, r.Size) })
			b.ReportMetric(float64(st.SwapSteps())/float64(st.Updates()), "swaps/update")
		})
	}
}

// --- Table 5.4: merged master trace, KRR+spatial vs SHARDS -----------

func masterTrace(b *testing.B) *trace.Trace {
	return benchTrace(b, "msr-master", 1<<18, false)
}

func BenchmarkTable5_4_TopDownSpatial(b *testing.B) {
	tr := masterTrace(b)
	replayModel(b, tr, newModel(b, "krr-topdown", model.Options{K: 5, Seed: 1, SamplingRate: 0.01}))
}

func BenchmarkTable5_4_BackwardSpatial(b *testing.B) {
	tr := masterTrace(b)
	replayModel(b, tr, newModel(b, "krr", model.Options{K: 5, Seed: 1, SamplingRate: 0.01}))
}

func BenchmarkTable5_4_SHARDS(b *testing.B) {
	tr := masterTrace(b)
	replayModel(b, tr, newModel(b, "shards", model.Options{Seed: 1, SamplingRate: 0.01}))
}

// --- Fig 5.5: redislike engine throughput ----------------------------

func BenchmarkFig5_5_RedisEngine(b *testing.B) {
	for _, mode := range []struct {
		name string
		m    redislike.SamplingMode
	}{{"someKeys", redislike.SampleSomeKeys}, {"randomKey", redislike.SampleRandomKey}} {
		b.Run(mode.name, func(b *testing.B) {
			tr := benchTrace(b, "msr-src2", 1<<17, false)
			e := redislike.NewEngine(redislike.Config{MaxMemory: 4 << 20, Sampling: mode.m, Seed: 1})
			replay(b, tr, func(r trace.Request) { e.Access(r) })
		})
	}
}

// --- §5.6 space: metadata per tracked object --------------------------

func BenchmarkSpace_StackMetadata(b *testing.B) {
	tr := benchTrace(b, "msr-proj", 1<<17, false)
	st := core.NewStack(core.KPrimeFor(5), 1)
	replay(b, tr, func(r trace.Request) { st.Reference(r.Key, r.Size) })
	if n := st.Len(); n > 0 {
		b.ReportMetric(float64(st.MemoryOverheadBytes())/float64(n), "B/object")
	}
}
