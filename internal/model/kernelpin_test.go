package model

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"krr/internal/core"
	"krr/internal/shardpipe"
	"krr/internal/telemetry"
	"krr/internal/trace"
	"krr/internal/workload"
)

// pinFrame is the batch length the full-scale pins feed ProcessBatch
// with: one wire frame, as a server tenant ingests.
const pinFrame = 4096

// presetStream draws n requests from a workload preset at scale 1.0
// with fixed object sizes.
func presetStream(t *testing.T, preset string, seed uint64, n int) []trace.Request {
	t.Helper()
	p, ok := workload.ByName(preset)
	if !ok {
		t.Fatalf("unknown preset %q", preset)
	}
	r := p.New(1.0, seed, false)
	out := make([]trace.Request, n)
	for i := range out {
		req, err := r.Next()
		if err != nil {
			t.Fatalf("preset %s: %v", preset, err)
		}
		out[i] = req
	}
	return out
}

// scrape registers m's metrics and returns every exposed sample by
// name.
func scrape(t *testing.T, m Model) map[string]float64 {
	t.Helper()
	set := telemetry.NewSet()
	m.MetricsInto(set, "")
	var buf bytes.Buffer
	if err := set.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("metric line %q: %v", line, err)
		}
		out[name] = v
	}
	return out
}

// kernelCounters are a KRR stack's owner accessors: updates, Σφ,
// moves (krr-bucket) or swap steps (krr), and the resident length.
type kernelCounters struct {
	updates, depthSum, moves uint64
	length                   int
}

// bucketCounters and stackCounters read the owner accessors.
func bucketCounters(s *core.BucketStack) kernelCounters {
	return kernelCounters{s.Updates(), s.DepthSum(), s.Moves(), s.Len()}
}

func stackCounters(s *core.Stack) kernelCounters {
	return kernelCounters{s.Updates(), s.DepthSum(), s.SwapSteps(), s.Len()}
}

// referenceAll feeds reqs to a bare kernel the way the krr adapters do
// when unsampled.
func referenceAll(reqs []trace.Request, ref func(uint64, uint32) core.Result, del func(uint64) bool) {
	for _, q := range reqs {
		if q.Op == trace.OpDelete {
			del(q.Key)
			continue
		}
		ref(q.Key, q.Size)
	}
}

// kernelPin is one full-scale configuration's recorded end-of-stream
// object-curve digest and exact kernel counters.
type kernelPin struct {
	model    string
	preset   string
	seed     uint64 // preset seed
	n        int    // requests
	digest   string
	counters kernelCounters
}

// kernelPins run krr-bucket (K 5, seed 1, ratio 2) in the regime the
// serving bench sets its tenants up in — 2^20 full-scale requests, about
// 17 buckets and a key table grown to 2^18 — and the backward krr
// stack on a 2^16-request msr-web prefix. The preset seeds are the
// bench's at its seed 1. Recorded before the kernels' draw path and
// telemetry were reworked; any change to draw order, draw values or a
// stack write moves them.
var kernelPins = []kernelPin{
	{"krr-bucket", "msr-web", 1, 1 << 20, "64a90804f8d38281ccac61f4771da042a7a9f212cf51f4211627a22bf46df44e", kernelCounters{1048576, 69225137373, 15980258, 150000}},
	{"krr-bucket", "tw-34.1", 7920, 1 << 20, "2040191faa77a19a3110fb811aa0b1d92eaf24fc6b4453c41087b82c6196c8c4", kernelCounters{1048576, 103138592026, 15107539, 251020}},
	{"krr", "msr-web", 1, 1 << 16, "d78836e59790892f5d8d24995274c3587328b9506c4d500cd94f32c58008eb04", kernelCounters{65536, 2072138949, 5071259, 60000}},
}

// pinOptions is the model configuration every kernel pin runs.
var pinOptions = Options{K: 5, Seed: 1, BucketRatio: 2}

// TestFullScaleKernelPins feeds each pin's stream to the registry model
// in wire-frame ProcessBatch calls and to a bare kernel built the same
// way, and checks the model's curve digest and the kernel's owner
// accessors against the recorded values.
func TestFullScaleKernelPins(t *testing.T) {
	for _, p := range kernelPins {
		reqs := presetStream(t, p.preset, p.seed, p.n)
		m, err := New(p.model, pinOptions)
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(reqs); off += pinFrame {
			if err := m.ProcessBatch(reqs[off:min(off+pinFrame, len(reqs))]); err != nil {
				t.Fatal(err)
			}
		}
		digest := curveDigest(m.Snapshot().Object)
		var got kernelCounters
		if p.model == "krr-bucket" {
			s := core.NewBucketStack(core.KPrimeFor(pinOptions.K), pinOptions.BucketRatio, pinOptions.Seed)
			referenceAll(reqs, s.Reference, s.Delete)
			got = bucketCounters(s)
		} else {
			s := core.NewStack(core.KPrimeFor(pinOptions.K), pinOptions.Seed)
			referenceAll(reqs, s.Reference, s.Delete)
			got = stackCounters(s)
		}
		if digest != p.digest || got != p.counters {
			t.Errorf("%s on %s seed %d (%d requests):\n got digest %s counters %+v\nwant digest %s counters %+v",
				p.model, p.preset, p.seed, p.n, digest, got, p.digest, p.counters)
		}
	}
}

// shadowKernel builds the bare kernel a krr or krr-bucket model with
// pinOptions and the given seed runs, and returns a feed for it and a
// reader of its owner accessors under the metric names the model
// exposes them as.
func shadowKernel(name string, seed uint64) (feed func([]trace.Request), owner func() map[string]float64) {
	if name == "krr-bucket" {
		s := core.NewBucketStack(core.KPrimeFor(pinOptions.K), pinOptions.BucketRatio, seed)
		return func(reqs []trace.Request) { referenceAll(reqs, s.Reference, s.Delete) },
			func() map[string]float64 {
				return map[string]float64{
					"updates_total": float64(s.Updates()), "update_depth_sum": float64(s.DepthSum()),
					"bucket_moves_total": float64(s.Moves()), "stack_len": float64(s.Len()), "buckets": float64(s.Buckets()),
				}
			}
	}
	s := core.NewStack(core.KPrimeFor(pinOptions.K), seed)
	return func(reqs []trace.Request) { referenceAll(reqs, s.Reference, s.Delete) },
		func() map[string]float64 {
			return map[string]float64{
				"updates_total": float64(s.Updates()), "update_depth_sum": float64(s.DepthSum()),
				"swap_steps_total": float64(s.SwapSteps()), "stack_len": float64(s.Len()),
			}
		}
}

// checkScrape compares a scrape's kernel metrics, named with prefix,
// against the owner accessors.
func checkScrape(t *testing.T, at string, got map[string]float64, prefix string, want map[string]float64) {
	t.Helper()
	for name, w := range want {
		if g, ok := got[prefix+name]; !ok || g != w {
			t.Fatalf("%s: scraped %s%s = %v (present %v), owner accessor %v", at, prefix, name, g, ok, w)
		}
	}
}

// TestKernelTelemetryMatchesOwnerAfterEachCall: the KRR kernels count
// in plain fields and the adapter publishes them once per ingest call,
// so after every Process and ProcessBatch return a scrape must equal
// the owner accessors exactly — checked against a bare kernel fed the
// same stream, over ragged batches, a per-request stretch and deletes.
func TestKernelTelemetryMatchesOwnerAfterEachCall(t *testing.T) {
	reqs := oracleTrace(t).Reqs
	for _, name := range []string{"krr", "krr-bucket"} {
		m, err := New(name, pinOptions)
		if err != nil {
			t.Fatal(err)
		}
		feed, owner := shadowKernel(name, pinOptions.Seed)
		rest := reqs
		for i := 0; len(rest) > 0; i++ {
			n := min(raggedBatches[i%len(raggedBatches)], len(rest))
			if i%5 == 4 {
				for _, req := range rest[:n] {
					if err := m.Process(req); err != nil {
						t.Fatal(err)
					}
				}
			} else if err := m.ProcessBatch(rest[:n]); err != nil {
				t.Fatal(err)
			}
			feed(rest[:n])
			rest = rest[n:]
			checkScrape(t, fmt.Sprintf("%s after %d requests", name, len(reqs)-len(rest)), scrape(t, m), "", owner())
		}
	}
}

// TestKernelTelemetryShardedAfterClose: once Close has joined the
// workers, every shard's published kernel metrics equal the owner
// accessors of a bare kernel fed that shard's share of the stream.
func TestKernelTelemetryShardedAfterClose(t *testing.T) {
	reqs := oracleTrace(t).Reqs
	const workers = 3
	for _, name := range []string{"krr", "krr-bucket"} {
		s, err := NewSharded(name, workers, pinOptions)
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(reqs); off += 997 {
			if err := s.ProcessBatch(reqs[off:min(off+997, len(reqs))]); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		got := scrape(t, s)
		for i := 0; i < workers; i++ {
			feed, owner := shadowKernel(name, shardpipe.ShardSeed(pinOptions.Seed, i))
			for _, req := range reqs {
				if s.pipe.ShardOf(req.Key) == i {
					feed([]trace.Request{req})
				}
			}
			checkScrape(t, name+" after Close", got, fmt.Sprintf("shard%d_", i), owner())
		}
	}
}

// TestKernelTelemetryScrapeDuringIngest scrapes a serial krr and
// krr-bucket model from another goroutine while ProcessBatch runs: the
// published metrics are the only kernel state a scrape reads, so -race
// must stay quiet, and the update count never goes backwards.
func TestKernelTelemetryScrapeDuringIngest(t *testing.T) {
	reqs := oracleTrace(t).Reqs
	for _, name := range []string{"krr", "krr-bucket"} {
		m, err := New(name, pinOptions)
		if err != nil {
			t.Fatal(err)
		}
		set := telemetry.NewSet()
		m.MetricsInto(set, "")
		done := make(chan struct{})
		scraped := make(chan error)
		go func() {
			var last float64
			for {
				var buf bytes.Buffer
				if err := set.WritePrometheus(&buf); err != nil {
					scraped <- err
					return
				}
				for _, line := range strings.Split(buf.String(), "\n") {
					if v, ok := strings.CutPrefix(line, "updates_total "); ok {
						u, err := strconv.ParseFloat(v, 64)
						if err != nil || u < last {
							scraped <- fmt.Errorf("updates_total %q after %v", v, last)
							return
						}
						last = u
					}
				}
				select {
				case <-done:
					scraped <- nil
					return
				default:
				}
			}
		}()
		for off := 0; off < len(reqs); off += 256 {
			if err := m.ProcessBatch(reqs[off:min(off+256, len(reqs))]); err != nil {
				t.Fatal(err)
			}
		}
		close(done)
		if err := <-scraped; err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}
