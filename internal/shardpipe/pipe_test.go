package shardpipe

import (
	"sync/atomic"
	"testing"

	"krr/internal/trace"
)

// TestOrderAndCompleteness checks that every sent request arrives at
// exactly the shard it was addressed to, in send order.
func TestOrderAndCompleteness(t *testing.T) {
	const workers = 4
	const n = 10_000
	got := make([][]uint64, workers)
	p := New(workers, func(shard int, batch []trace.Request) {
		for _, req := range batch {
			got[shard] = append(got[shard], req.Key)
		}
	})
	want := make([][]uint64, workers)
	for i := uint64(0); i < n; i++ {
		shard := p.ShardOf(i)
		want[shard] = append(want[shard], i)
		p.Send(shard, trace.Request{Key: i})
	}
	p.Close()
	for s := 0; s < workers; s++ {
		if len(got[s]) != len(want[s]) {
			t.Fatalf("shard %d: got %d requests, want %d", s, len(got[s]), len(want[s]))
		}
		for i := range got[s] {
			if got[s][i] != want[s][i] {
				t.Fatalf("shard %d: request %d = key %d, want %d", s, i, got[s][i], want[s][i])
			}
		}
	}
}

// TestCloseIdempotent verifies Close can be called repeatedly and that
// a short (sub-batch) stream is fully flushed.
func TestCloseIdempotent(t *testing.T) {
	var count atomic.Uint64
	p := New(2, func(_ int, batch []trace.Request) { count.Add(uint64(len(batch))) })
	for i := uint64(0); i < 7; i++ {
		p.Send(p.ShardOf(i), trace.Request{Key: i})
	}
	p.Close()
	p.Close()
	if count.Load() != 7 {
		t.Fatalf("consumed %d, want 7", count.Load())
	}
}

// TestSendBatchEquivalence pins SendBatch bit-identical to the
// per-request Send loop: same per-shard request sequences, same
// per-shard consumed counts, and the same number of flushed batches
// carrying the same request total — across chunk sizes straddling the
// BatchLen boundary and across partial-fill states.
func TestSendBatchEquivalence(t *testing.T) {
	const workers = 3
	const n = 4_000
	reqs := make([]trace.Request, n)
	for i := range reqs {
		reqs[i] = trace.Request{Key: uint64(i) * 0x9e3779b97f4a7c15, Size: uint32(i%500 + 1), Op: trace.Op(i % 3)}
	}

	type capture struct {
		seqs    [][]trace.Request
		batches uint64
		reqs    uint64
	}
	run := func(send func(p *Pipe, shard int, chunk []trace.Request)) capture {
		var c capture
		c.seqs = make([][]trace.Request, workers)
		p := New(workers, func(shard int, batch []trace.Request) {
			c.seqs[shard] = append(c.seqs[shard], batch...)
		})
		// Route by key as real consumers do, feeding variable-size runs
		// of same-shard requests through send.
		var runStart, runShard = 0, p.ShardOf(reqs[0].Key)
		for i := 1; i <= len(reqs); i++ {
			if i < len(reqs) && p.ShardOf(reqs[i].Key) == runShard {
				continue
			}
			send(p, runShard, reqs[runStart:i])
			if i < len(reqs) {
				runStart, runShard = i, p.ShardOf(reqs[i].Key)
			}
		}
		p.Close()
		c.batches = p.batches.Load()
		c.reqs = p.batchReqs.Load()
		return c
	}

	want := run(func(p *Pipe, shard int, chunk []trace.Request) {
		for _, r := range chunk {
			p.Send(shard, r)
		}
	})
	got := run(func(p *Pipe, shard int, chunk []trace.Request) {
		p.SendBatch(shard, chunk)
	})

	if got.batches != want.batches || got.reqs != want.reqs {
		t.Fatalf("flush accounting differs: got %d batches/%d reqs, want %d/%d",
			got.batches, got.reqs, want.batches, want.reqs)
	}
	for s := 0; s < workers; s++ {
		if len(got.seqs[s]) != len(want.seqs[s]) {
			t.Fatalf("shard %d: got %d requests, want %d", s, len(got.seqs[s]), len(want.seqs[s]))
		}
		for i := range got.seqs[s] {
			if got.seqs[s][i] != want.seqs[s][i] {
				t.Fatalf("shard %d: request %d = %+v, want %+v", s, i, got.seqs[s][i], want.seqs[s][i])
			}
		}
	}

	// Oversized single chunks (> BatchLen) split exactly like repeated
	// Send too.
	var count atomic.Uint64
	p := New(1, func(_ int, batch []trace.Request) { count.Add(uint64(len(batch))) })
	p.SendBatch(0, reqs[:BatchLen*2+17])
	p.Close()
	if count.Load() != BatchLen*2+17 {
		t.Fatalf("oversized chunk: consumed %d, want %d", count.Load(), BatchLen*2+17)
	}
}

// TestSendBatchAfterClosePanicsClearly pins the shared contract.
func TestSendBatchAfterClosePanicsClearly(t *testing.T) {
	p := New(2, func(int, []trace.Request) {})
	p.Close()
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("SendBatch after Close did not panic")
		}
	}()
	p.SendBatch(0, []trace.Request{{Key: 1}})
}

// TestShardSeedDistinct ensures derived shard seeds differ from each
// other and from the base seed.
func TestShardSeedDistinct(t *testing.T) {
	seen := map[uint64]bool{42: true}
	for i := 0; i < 16; i++ {
		s := ShardSeed(42, i)
		if seen[s] {
			t.Fatalf("ShardSeed(42, %d) = %d collides", i, s)
		}
		seen[s] = true
	}
}

// TestSingleWorkerShardOf pins the degenerate W=1 routing.
func TestSingleWorkerShardOf(t *testing.T) {
	p := New(1, func(int, []trace.Request) {})
	defer p.Close()
	for i := uint64(0); i < 100; i++ {
		if p.ShardOf(i) != 0 {
			t.Fatalf("ShardOf(%d) != 0 with one worker", i)
		}
	}
}

// TestSendAfterClosePanicsClearly pins the Send contract: a Send after
// Close must fail with the package's own message, not an opaque
// send-on-closed-channel runtime panic.
func TestSendAfterClosePanicsClearly(t *testing.T) {
	p := New(2, func(int, []trace.Request) {})
	p.Close()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Send after Close did not panic")
		}
		if msg, ok := r.(string); !ok || msg != "shardpipe: Send after Close" {
			t.Fatalf("panic = %v, want %q", r, "shardpipe: Send after Close")
		}
	}()
	p.Send(0, trace.Request{Key: 1})
}

// TestQuiesce checks the mid-stream barrier: inside fn every request
// sent so far — including sub-batch partials — has been consumed, and
// the pipe keeps working afterwards.
func TestQuiesce(t *testing.T) {
	const workers = 3
	var count atomic.Uint64
	p := New(workers, func(_ int, batch []trace.Request) { count.Add(uint64(len(batch))) })

	send := func(n uint64) {
		for i := uint64(0); i < n; i++ {
			p.Send(p.ShardOf(i), trace.Request{Key: i})
		}
	}
	send(1000) // not a multiple of BatchLen: partial batches pending
	p.Quiesce(func() {
		if got := count.Load(); got != 1000 {
			t.Errorf("quiesced with %d consumed, want 1000", got)
		}
	})
	send(500)
	p.Quiesce(func() {
		if got := count.Load(); got != 1500 {
			t.Errorf("second quiesce: %d consumed, want 1500", got)
		}
	})
	p.Close()
	if count.Load() != 1500 {
		t.Fatalf("consumed %d, want 1500", count.Load())
	}
	// Quiesce after Close degenerates to running fn.
	ran := false
	p.Quiesce(func() { ran = true })
	if !ran {
		t.Fatal("Quiesce after Close did not run fn")
	}
}

// TestPipeTelemetry exercises the metric surface: per-worker consumed
// counters sum to the stream length and the batch counters agree.
func TestPipeTelemetry(t *testing.T) {
	const n = 5000
	p := New(2, func(int, []trace.Request) {})
	for i := uint64(0); i < n; i++ {
		p.Send(p.ShardOf(i), trace.Request{Key: i})
	}
	p.Close()
	var consumed uint64
	for i := 0; i < p.Workers(); i++ {
		consumed += p.Consumed(i)
		if p.QueueDepth(i) != 0 {
			t.Fatalf("queue depth %d after Close", p.QueueDepth(i))
		}
	}
	if consumed != n {
		t.Fatalf("consumed %d, want %d", consumed, n)
	}
	if p.batchReqs.Load() != n {
		t.Fatalf("batchReqs = %d, want %d", p.batchReqs.Load(), n)
	}
	if p.batches.Load() < n/BatchLen {
		t.Fatalf("batches = %d, want >= %d", p.batches.Load(), n/BatchLen)
	}
}
