package model

import (
	"testing"

	"krr/internal/trace"
)

// TestShardedProcessBatchEquivalence pins the batched ingest fast path
// to per-request Process: same options, same stream, arbitrary batch
// boundaries — bit-identical curves and identical stream counters.
func TestShardedProcessBatchEquivalence(t *testing.T) {
	tr := synthTrace(t, 40000, 4000, 7)
	reqs := tr.Reqs
	opts := Options{K: 5, Seed: 11, SamplingRate: 0.3, Workers: 4, Bytes: BytesOn}

	serial, err := New("krr", opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range reqs {
		if err := serial.Process(req); err != nil {
			t.Fatal(err)
		}
	}

	batched, err := New("krr", opts)
	if err != nil {
		t.Fatal(err)
	}
	bp, ok := batched.(BatchProcessor)
	if !ok {
		t.Fatal("sharded model does not implement BatchProcessor")
	}
	// Ragged batch boundaries, including empty and oversized chunks.
	sizes := []int{1, 0, 7, 4096, 63, 997, 2}
	for i := 0; len(reqs) > 0; i++ {
		n := sizes[i%len(sizes)]
		if n > len(reqs) {
			n = len(reqs)
		}
		if err := bp.ProcessBatch(reqs[:n]); err != nil {
			t.Fatal(err)
		}
		reqs = reqs[n:]
	}

	ss, bs := serial.Stats(), batched.Stats()
	if ss.Seen != bs.Seen || ss.Sampled != bs.Sampled {
		t.Fatalf("stats diverge: serial %+v batched %+v", ss, bs)
	}
	if !sameCurve(serial.ObjectMRC(), batched.ObjectMRC()) {
		t.Fatal("object curves diverge between Process and ProcessBatch")
	}
	if !sameCurve(serial.ByteMRC(), batched.ByteMRC()) {
		t.Fatal("byte curves diverge between Process and ProcessBatch")
	}
}

// TestStreamProcessBatchEquivalence pins every registry entry's batch
// path to per-request Process: ragged batches must leave bit-identical
// curves and stream counters, with spatial sampling off and on (which
// covers the adapter's filter, the kernel-reported filter of aet,
// statstack and shards-fixedsize, and no filter).
func TestStreamProcessBatchEquivalence(t *testing.T) {
	tr := synthTrace(t, 20000, 2000, 5)
	for _, info := range All() {
		for _, rate := range []float64{0, 0.3} {
			opts := Options{Seed: 1, SamplingRate: rate}
			serial, err := New(info.Name, opts)
			if err != nil {
				t.Fatal(err)
			}
			feedEach(t, serial, tr)
			batched, err := New(info.Name, opts)
			if err != nil {
				t.Fatal(err)
			}
			feedBatches(t, batched, tr)
			if ss, bs := serial.Stats(), batched.Stats(); ss != bs {
				t.Fatalf("%s rate %v: stats diverge: Process %+v ProcessBatch %+v", info.Name, rate, ss, bs)
			}
			if !sameCurve(serial.ObjectMRC(), batched.ObjectMRC()) {
				t.Fatalf("%s rate %v: curves diverge between Process and ProcessBatch", info.Name, rate)
			}
			if err := batched.(BatchProcessor).ProcessBatch(tr.Reqs[:1]); err != ErrFinalized {
				t.Fatalf("%s: ProcessBatch after finalize = %v, want ErrFinalized", info.Name, err)
			}
		}
	}
}

// processOnly hides a model's BatchProcessor, leaving only Model.
type processOnly struct{ Model }

// TestProcessBatchFallback pins the helper's per-request fallback for
// models that do not implement BatchProcessor.
func TestProcessBatchFallback(t *testing.T) {
	tr := synthTrace(t, 5000, 500, 3)
	reqs := tr.Reqs
	opts := Options{K: 5, Seed: 9}

	serial, err := New("krr", opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range reqs {
		if err := serial.Process(req); err != nil {
			t.Fatal(err)
		}
	}
	inner, err := New("krr", opts)
	if err != nil {
		t.Fatal(err)
	}
	var viaHelper Model = processOnly{inner}
	if _, ok := viaHelper.(BatchProcessor); ok {
		t.Fatal("wrapped model implements BatchProcessor; fallback untested")
	}
	for off := 0; off < len(reqs); off += 321 {
		end := off + 321
		if end > len(reqs) {
			end = len(reqs)
		}
		if err := ProcessBatch(viaHelper, reqs[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	if !sameCurve(serial.ObjectMRC(), viaHelper.ObjectMRC()) {
		t.Fatal("ProcessBatch fallback diverges from Process")
	}
}

// TestShardedProcessBatchAfterFinalize pins the guard.
func TestShardedProcessBatchAfterFinalize(t *testing.T) {
	m, err := New("krr", Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	bp := m.(BatchProcessor)
	if err := bp.ProcessBatch([]trace.Request{{Key: 1, Size: 1}}); err != nil {
		t.Fatal(err)
	}
	m.ObjectMRC()
	if err := bp.ProcessBatch([]trace.Request{{Key: 2, Size: 1}}); err != ErrFinalized {
		t.Fatalf("ProcessBatch after finalize = %v, want ErrFinalized", err)
	}
}

// BenchmarkKernelFilteredBatch times ProcessBatch at rate 0.1 for the
// models whose kernel owns the spatial filter. Each request's key is
// hashed once, by the kernel; an adapter-side copy of the filter would
// add a second hash per request.
func BenchmarkKernelFilteredBatch(b *testing.B) {
	reqs := oracleTrace(b).Reqs
	for _, name := range []string{"aet", "statstack", "shards-fixedsize"} {
		b.Run(name, func(b *testing.B) {
			m, err := New(name, Options{Seed: 3, SamplingRate: 0.1})
			if err != nil {
				b.Fatal(err)
			}
			bp := m.(BatchProcessor)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := bp.ProcessBatch(reqs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(reqs)), "ns/req")
		})
	}
}
