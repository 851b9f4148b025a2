// Package shardpipe implements the batched single-producer fan-out
// pipeline behind every sharded model in this repository: one routing
// goroutine partitions a request stream across W worker-owned
// consumers over single-producer single-consumer channels, moving
// requests in pooled batches so channel synchronization is amortized
// to ~1/BatchLen per request.
//
// The pipeline carries no model state of its own — each worker invokes
// a caller-supplied consume function against its shard's private
// consumer, so any stack model whose histograms merge (see
// internal/model's CapSharded) can ride the same plumbing; its one
// user is model.Sharded.
//
// For online monitoring the pipe supports Quiesce — a barrier that
// briefly parks every worker with its queue drained so the caller can
// read shard-private state mid-stream — and exports per-worker
// throughput, batch-occupancy and queue-depth telemetry via
// MetricsInto.
package shardpipe

import (
	"fmt"
	"sync"

	"krr/internal/hashing"
	"krr/internal/telemetry"
	"krr/internal/trace"
)

// BatchLen is the routing batch size: large enough to amortize channel
// overhead, small enough to keep per-shard latency and pooled memory
// trivial (256 requests × 16 bytes = 4 KiB per buffer).
const BatchLen = 256

// chanDepth bounds in-flight batches per worker; combined with the
// pool it caps pipeline memory at roughly
// W × chanDepth × BatchLen × 16 bytes.
const chanDepth = 8

// ShardSeed derives shard i's RNG seed from a pipeline seed,
// decorrelating per-shard randomness while keeping the whole pipeline
// deterministic in the one seed. Every sharded consumer uses this one
// derivation so a serial model and its sharded form stay comparable
// run-to-run.
func ShardSeed(seed uint64, shard int) uint64 {
	return hashing.Mix64(seed ^ (uint64(shard) + 1))
}

// Pipe fans one request stream out to W shard workers. The
// caller-facing API is single-producer: Send, Quiesce and Close must
// all be called from one goroutine (or be externally serialized), and
// Send must not be called after Close.
type Pipe struct {
	chans   []chan []trace.Request
	pending [][]trace.Request
	pool    sync.Pool
	wg      sync.WaitGroup
	closed  bool

	// paused implements the Quiesce barrier: each worker signals it
	// after acknowledging a nil sentinel batch, then parks on its own
	// batch channel until the producer sends a resume token. Keeping
	// the whole handshake on the per-worker channels (rather than a
	// shared field) gives every step a channel happens-before edge.
	paused sync.WaitGroup

	// Telemetry: batch counters are updated once per flushed batch (so
	// the per-request hot path stays free of atomics on the router
	// side), consumed counters once per drained batch on each worker.
	batches   telemetry.Counter
	batchReqs telemetry.Counter
	consumed  []telemetry.Counter
}

// New starts a pipe with workers shard goroutines (workers >= 1).
// Each worker calls consume(shard, batch) for every batch routed to
// it, strictly in arrival order; consume runs on the worker goroutine,
// must touch only shard-private state, and must not retain batch,
// which the pipe recycles.
func New(workers int, consume func(shard int, batch []trace.Request)) *Pipe {
	if workers < 1 {
		workers = 1
	}
	p := &Pipe{
		chans:    make([]chan []trace.Request, workers),
		pending:  make([][]trace.Request, workers),
		consumed: make([]telemetry.Counter, workers),
	}
	p.pool.New = func() any { return make([]trace.Request, 0, BatchLen) }
	for i := 0; i < workers; i++ {
		p.chans[i] = make(chan []trace.Request, chanDepth)
		p.pending[i] = p.pool.Get().([]trace.Request)
		p.wg.Add(1)
		go p.run(i, consume)
	}
	return p
}

// run is the per-shard worker loop: hand batches to consume and
// recycle the buffers. A nil batch is the Quiesce sentinel — the
// worker acknowledges it and parks until the barrier lifts.
func (p *Pipe) run(i int, consume func(int, []trace.Request)) {
	defer p.wg.Done()
	for batch := range p.chans[i] {
		if batch == nil {
			p.paused.Done()
			// Park until the barrier lifts: the producer sends exactly
			// one resume token (another nil) after its callback returns,
			// and sends nothing else in between — single-producer FIFO
			// ordering makes the next value on this channel the token.
			<-p.chans[i]
			continue
		}
		consume(i, batch)
		p.consumed[i].Add(uint64(len(batch)))
		p.pool.Put(batch[:0])
	}
}

// Workers returns the shard count.
func (p *Pipe) Workers() int { return len(p.chans) }

// ShardOf returns the shard a key routes to. Murmur3Fmix is
// deliberately a different mixer family from the Mix64 the sampling
// filter uses, so shard assignment is independent of sampling
// admission.
func (p *Pipe) ShardOf(key uint64) int {
	if len(p.chans) == 1 {
		return 0
	}
	return int(hashing.Murmur3Fmix(key) % uint64(len(p.chans)))
}

// Send routes one request to shard i.
//
// Contract: single producer only, and never after Close — the pipe's
// workers have exited and their channels are closed, so there is no
// goroutine left to consume the request. Violations panic with
// "shardpipe: Send after Close" rather than surfacing as an opaque
// send-on-closed-channel runtime error from deep inside the batcher.
func (p *Pipe) Send(i int, req trace.Request) {
	if p.closed {
		panic("shardpipe: Send after Close")
	}
	b := append(p.pending[i], req)
	if len(b) == BatchLen {
		p.flush(i, b)
		b = p.pool.Get().([]trace.Request)
	}
	p.pending[i] = b
}

// SendBatch routes a whole slice of requests to shard i, equivalent to
// calling Send for each element — identical per-shard request order
// AND identical flush boundaries (the pending batch fills to BatchLen
// and flushes exactly as the per-request path would) — but with the
// append amortized to one copy per pending-buffer fill. Batched ingest
// planes use it to hand frame-sized runs to a shard without paying the
// per-request call. reqs is copied; the caller may recycle it
// immediately. Same single-producer/never-after-Close contract as
// Send.
func (p *Pipe) SendBatch(i int, reqs []trace.Request) {
	if p.closed {
		panic("shardpipe: Send after Close")
	}
	b := p.pending[i]
	for len(reqs) > 0 {
		n := copy(b[len(b):BatchLen], reqs)
		b = b[:len(b)+n]
		reqs = reqs[n:]
		if len(b) == BatchLen {
			p.flush(i, b)
			b = p.pool.Get().([]trace.Request)
		}
	}
	p.pending[i] = b
}

// flush hands one batch to shard i's worker, recording batch
// telemetry.
func (p *Pipe) flush(i int, b []trace.Request) {
	p.batches.Inc()
	p.batchReqs.Add(uint64(len(b)))
	p.chans[i] <- b
}

// Quiesce flushes the partial pending batches, waits until every
// worker has drained its queue and parked, runs fn — which may safely
// read any shard-private state — and then resumes the workers. After
// Close it simply runs fn (the workers have already drained and
// exited).
//
// Quiesce shares Send's single-producer contract: it must not run
// concurrently with Send or Close.
func (p *Pipe) Quiesce(fn func()) {
	if p.closed {
		fn()
		return
	}
	for i, b := range p.pending {
		if len(b) > 0 {
			p.flush(i, b)
			p.pending[i] = p.pool.Get().([]trace.Request)
		}
	}
	p.paused.Add(len(p.chans))
	for i := range p.chans {
		p.chans[i] <- nil // park sentinel
	}
	// Every worker has drained its queue and parked: fn sees shard
	// state with no writer running (the workers' prior writes are
	// published through paused.Done/Wait).
	p.paused.Wait()
	fn()
	for i := range p.chans {
		p.chans[i] <- nil // resume token
	}
}

// Close flushes pending batches and waits for every worker to finish.
// It is idempotent and must be called before reading shard state.
func (p *Pipe) Close() {
	if p.closed {
		return
	}
	p.closed = true
	for i, b := range p.pending {
		if len(b) > 0 {
			p.flush(i, b)
		}
		p.pending[i] = nil
		close(p.chans[i])
	}
	p.wg.Wait()
}

// QueueDepth returns the number of batches queued for shard i but not
// yet picked up by its worker. Safe to call from any goroutine.
func (p *Pipe) QueueDepth(i int) int { return len(p.chans[i]) }

// Consumed returns the number of requests shard i's worker has fully
// processed. Safe to call from any goroutine.
func (p *Pipe) Consumed(i int) uint64 { return p.consumed[i].Load() }

// MetricsInto registers the pipe's telemetry under prefix: flushed
// batch counts, batch occupancy, total queued batches, and per-worker
// throughput counters.
func (p *Pipe) MetricsInto(set *telemetry.Set, prefix string) {
	set.CounterFunc(prefix+"batches_total", "batches flushed to shard workers", p.batches.Load)
	set.CounterFunc(prefix+"batch_requests_total", "requests carried by flushed batches", p.batchReqs.Load)
	set.GaugeFunc(prefix+"batch_fill_avg", "average requests per flushed batch (cap 256)", func() float64 {
		b := p.batches.Load()
		if b == 0 {
			return 0
		}
		return float64(p.batchReqs.Load()) / float64(b)
	})
	set.GaugeFunc(prefix+"queue_depth", "batches enqueued but not yet consumed, all shards", func() float64 {
		var total int
		for i := range p.chans {
			total += len(p.chans[i])
		}
		return float64(total)
	})
	for i := range p.consumed {
		c := &p.consumed[i]
		set.CounterFunc(fmt.Sprintf("%sworker%d_requests_total", prefix, i),
			"requests consumed by this shard worker", c.Load)
	}
}
