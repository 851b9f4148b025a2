package model

import "testing"

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
	defer serial.Close()
	for _, req := range reqs {
		if err := serial.Process(req); err != nil {
			t.Fatal(err)
		}
	}

	batched, err := New("krr", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer batched.Close()
	// Ragged batch boundaries, including empty and oversized chunks.
	sizes := []int{1, 0, 7, 4096, 63, 997, 2}
	for i := 0; len(reqs) > 0; i++ {
		n := sizes[i%len(sizes)]
		if n > len(reqs) {
			n = len(reqs)
		}
		if err := batched.ProcessBatch(reqs[:n]); err != nil {
			t.Fatal(err)
		}
		reqs = reqs[n:]
	}

	ss, bs := serial.Stats(), batched.Stats()
	if ss.Seen != bs.Seen || ss.Sampled != bs.Sampled {
		t.Fatalf("stats diverge: serial %+v batched %+v", ss, bs)
	}
	sn, bn := serial.Snapshot(), batched.Snapshot()
	if !sameCurve(sn.Object, bn.Object) {
		t.Fatal("object curves diverge between Process and ProcessBatch")
	}
	if !sameCurve(sn.Byte, bn.Byte) {
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
			if !sameCurve(serial.Snapshot().Object, batched.Snapshot().Object) {
				t.Fatalf("%s rate %v: curves diverge between Process and ProcessBatch", info.Name, rate)
			}
		}
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
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := m.ProcessBatch(reqs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(reqs)), "ns/req")
		})
	}
}
