package core_test

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"krr/internal/histogram"
	"krr/internal/model"
	"krr/internal/mrc"
	"krr/internal/telemetry"
	"krr/internal/trace"
	"krr/internal/workload"
)

// The sharded KRR pipeline is model.Sharded over the krr model; these
// tests hold it to the properties the core stacks must give it.

// shardedTestTrace materializes a preset for the equivalence tests.
func shardedTestTrace(t *testing.T, preset string, n int) *trace.Trace {
	t.Helper()
	p, ok := workload.ByName(preset)
	if !ok {
		t.Fatalf("unknown preset %s", preset)
	}
	tr, err := trace.Collect(p.New(0.2, 7, false), n)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// newKRR builds the krr model (sharded when opts.Workers > 1).
func newKRR(t testing.TB, opts model.Options) model.Model {
	t.Helper()
	m, err := model.New("krr", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// replayed is newKRR fed the whole trace.
func replayed(t testing.TB, tr *trace.Trace, opts model.Options) model.Model {
	t.Helper()
	m := newKRR(t, opts)
	if err := model.ProcessAll(m, tr.Reader()); err != nil {
		t.Fatal(err)
	}
	return m
}

// shardMetricSum sums the per-shard metric named suffix across a
// sharded model's shards (the shard<i>_ series of its exposition).
func shardMetricSum(t *testing.T, m model.Model, suffix string) float64 {
	t.Helper()
	set := telemetry.NewSet()
	m.MetricsInto(set, "")
	var buf bytes.Buffer
	if err := set.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, line := range strings.Split(buf.String(), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || !strings.HasPrefix(name, "shard") || !strings.HasSuffix(name, "_"+suffix) {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("metric line %q: %v", line, err)
		}
		sum += v
	}
	return sum
}

// TestShardedMatchesSerialMRC is the statistical-equivalence check the
// whole design rests on: a W=4 sharded model and the serial model
// must produce MRCs within the paper's accuracy tolerance on realistic
// workloads. The two runs use different randomness and the sharded one
// measures W subsampled stacks, so agreement is statistical, not
// bitwise — MAE ≤ 0.01 matches the paper's own KRR-vs-simulation
// acceptance bar (§5.3).
func TestShardedMatchesSerialMRC(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test needs full-size traces")
	}
	for _, preset := range []string{"msr-web", "ycsb-c-0.99"} {
		t.Run(preset, func(t *testing.T) {
			tr := shardedTestTrace(t, preset, 400_000)
			sum, err := trace.Summarize(tr.Reader())
			if err != nil {
				t.Fatal(err)
			}
			serial := replayed(t, tr, model.Options{K: 8, Seed: 42})
			sharded := replayed(t, tr, model.Options{K: 8, Seed: 42, Workers: 4})
			a, b := serial.Snapshot().Object, sharded.Snapshot().Object
			at := mrc.EvenSizes(uint64(sum.DistinctObjects), 40)
			if mae := mrc.MAE(a, b, at); mae > 0.01 {
				t.Fatalf("sharded vs serial MAE = %.4f > 0.01", mae)
			}
			if seen := sharded.Stats().Seen; seen != uint64(tr.Len()) {
				t.Fatalf("seen %d of %d requests", seen, tr.Len())
			}
		})
	}
}

// TestShardedWithSpatialSampling stacks both sampling layers: the
// spatial filter (R) in the router and hash sharding (W) behind it.
// The combined scale W/R must still land on the serial curve.
func TestShardedWithSpatialSampling(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test needs full-size traces")
	}
	tr := shardedTestTrace(t, "msr-web", 400_000)
	sum, err := trace.Summarize(tr.Reader())
	if err != nil {
		t.Fatal(err)
	}
	serial := replayed(t, tr, model.Options{K: 4, Seed: 42})
	sharded := replayed(t, tr, model.Options{K: 4, Seed: 42, Workers: 4, SamplingRate: 0.1})
	at := mrc.EvenSizes(uint64(sum.DistinctObjects), 40)
	if mae := mrc.MAE(serial.Snapshot().Object, sharded.Snapshot().Object, at); mae > 0.02 {
		t.Fatalf("sharded+spatial vs serial MAE = %.4f > 0.02", mae)
	}
	if st := sharded.Stats(); st.Sampled >= st.Seen {
		t.Fatal("filter admitted everything at R = 0.1")
	}
}

// TestShardedBytesMRC exercises the byte-granularity merge path.
func TestShardedBytesMRC(t *testing.T) {
	p, _ := workload.ByName("tw-26.0")
	tr, err := trace.Collect(p.New(0.1, 7, true), 100_000)
	if err != nil {
		t.Fatal(err)
	}
	c := replayed(t, tr, model.Options{K: 4, Seed: 1, Workers: 3, Bytes: model.BytesSizeArray}).Snapshot().Byte
	if c == nil || c.Len() < 2 {
		t.Fatalf("degenerate byte curve: %v", c)
	}
	for i := 1; i < c.Len(); i++ {
		if c.Miss[i] > c.Miss[i-1]+1e-9 {
			t.Fatalf("byte curve not non-increasing at %d", i)
		}
	}
}

// TestShardedRequestConservation checks exact plumbing (not
// statistics): every admitted request lands in exactly one shard's
// model, and the merged histogram totals add up.
func TestShardedRequestConservation(t *testing.T) {
	tr := shardedTestTrace(t, "msr-src1", 50_000)
	for _, w := range []int{1, 2, 4, 7} {
		sp, err := model.NewSharded("krr", w, model.Options{K: 2, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		if err := model.ProcessAll(sp, tr.Reader()); err != nil {
			t.Fatal(err)
		}
		sp.Close()
		if total := shardMetricSum(t, sp, "requests_sampled_total"); total != float64(tr.Len()) {
			t.Fatalf("W=%d: shards recorded %v of %d requests", w, total, tr.Len())
		}
		merged := histogram.NewDense(1024)
		sp.ReadObjectHist(merged)
		if got := merged.Total(); got != uint64(tr.Len()) {
			t.Fatalf("W=%d: merge lost requests: %d != %d", w, got, tr.Len())
		}
	}
}

// TestShardedDeleteOps routes deletes like any other request (same
// key → same shard), so per-shard stacks stay consistent.
func TestShardedDeleteOps(t *testing.T) {
	sp := newKRR(t, model.Options{K: 2, Seed: 3, Workers: 4})
	for i := 0; i < 10_000; i++ {
		k := uint64(i % 500)
		sp.Process(trace.Request{Key: k, Size: 1, Op: trace.OpGet})
		if i%13 == 0 {
			sp.Process(trace.Request{Key: k, Size: 1, Op: trace.OpDelete})
		}
	}
	sp.Close() // drains the pipeline so the stack gauges are final
	resident := shardMetricSum(t, sp, "stack_len")
	if resident == 0 || resident > 500 {
		t.Fatalf("resident objects across shards = %v", resident)
	}
}

// TestShardedPipelineRace floods a W=8 pipeline with a key mix that
// fills channels and recycles pool buffers; run under -race this
// exercises every cross-goroutine hand-off in the router, workers,
// pool, and merge.
func TestShardedPipelineRace(t *testing.T) {
	sp, err := model.NewSharded("krr", 8, model.Options{K: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200_000; i++ {
		// Mixed hot/cold keys keep all shards busy simultaneously.
		k := uint64(i) % 1000
		if i%3 == 0 {
			k = uint64(i)
		}
		sp.Process(trace.Request{Key: k, Size: 1})
	}
	c := sp.Snapshot().Object // quiesces and merges
	if c.Len() == 0 {
		t.Fatal("empty curve")
	}
	sp.Close()
	sp.Close() // idempotent
}

// TestShardedWorkersValidation covers options plumbing.
func TestShardedWorkersValidation(t *testing.T) {
	if _, err := model.New("krr", model.Options{K: 1, Workers: -1}); err == nil {
		t.Fatal("negative Workers must fail validation")
	}
	if _, err := model.NewSharded("krr", 2, model.Options{K: 1, Workers: -1}); err == nil {
		t.Fatal("negative Workers must fail sharded validation too")
	}
	// Workers 0 and 1 both yield a single-shard pipeline.
	for _, w := range []int{0, 1} {
		sp, err := model.NewSharded("krr", w, model.Options{K: 1})
		if err != nil {
			t.Fatal(err)
		}
		if sp.Workers() != 1 {
			t.Fatalf("Workers()=%d for %d", sp.Workers(), w)
		}
		sp.Close()
	}
}

// TestBuildMRCShardedPath checks the dispatch in model.New: Workers > 1
// must produce a sane curve through the sharded pipeline.
func TestBuildMRCShardedPath(t *testing.T) {
	tr := shardedTestTrace(t, "msr-src2", 50_000)
	for _, w := range []int{1, 4} {
		c := replayed(t, tr, model.Options{K: 4, Seed: 5, Workers: w}).Snapshot().Object
		if c.Len() < 2 || c.Eval(0) != 1 {
			t.Fatalf("W=%d: degenerate curve", w)
		}
	}
}

// BenchmarkShardedProcess measures router+pipeline throughput of the
// sharded krr model across worker counts (the facade-level
// BenchmarkShardedKRR in the repo root pins the acceptance ratio).
func BenchmarkShardedProcess(b *testing.B) {
	p, _ := workload.ByName("msr-web")
	tr, err := trace.Collect(p.New(0.1, 42, false), 1<<17)
	if err != nil {
		b.Fatal(err)
	}
	reqs := tr.Reqs
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("W=%d", w), func(b *testing.B) {
			sp, err := model.NewSharded("krr", w, model.Options{K: 8, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sp.Process(reqs[i%len(reqs)])
			}
			b.StopTimer()
			sp.Close()
		})
	}
}
