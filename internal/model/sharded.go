package model

import (
	"fmt"
	"sync"

	"krr/internal/histogram"
	"krr/internal/mrc"
	"krr/internal/sampling"
	"krr/internal/shardpipe"
	"krr/internal/telemetry"
	"krr/internal/trace"
)

// histSource is implemented by adapters whose registry entry declares
// CapSharded: the Sharded wrapper reads shard histograms directly and
// merges them, bypassing the sub-models' own curve accessors.
type histSource interface {
	objHist() *histogram.Dense
	byteHist() *histogram.Log
}

// Sharded fans a request stream out over W instances of one model, one
// per keyspace partition, and merges their histograms into a single
// curve (§5.5's parallel decomposition, generalized beyond KRR).
//
// Correctness rests on the CapSharded contract: a uniform hash
// partition of the keyspace is itself a spatial sample at rate 1/W, so
// each shard's distances are unbiased samples and the merged histogram
// is rescaled by W (times 1/R for any additional spatial sampling,
// applied once at the router so shards see an identical admitted
// stream regardless of W). The shard router hashes with a different
// mixer family than the sampling filter, keeping the two partitions
// independent.
//
// Unlike serial models, Sharded serializes its API internally: a
// monitoring goroutine may call Snapshot (or Stats) while another
// drives Process — snapshot reads quiesce the pipeline, merge the
// worker-owned histograms race-free, and resume the workers. Process
// itself remains single-producer (one streaming goroutine; the W-way
// parallelism lives behind the pipe).
//
// Sharded is the one model with a terminal state: Close joins the
// workers, after which Process and ProcessBatch return ErrClosed and
// the reads return the drained histograms' curves.
type Sharded struct {
	// mu serializes Process, the reads and Close so a monitor thread
	// can snapshot a live stream. The streaming path pays one
	// uncontended lock per request, noise next to the shard hash and
	// batch append it guards.
	mu      sync.Mutex
	closed  bool // guarded by mu
	pipe    *shardpipe.Pipe
	subs    []Model
	sources []histSource
	filter  *sampling.Filter
	bytes   bool
	seen    telemetry.Counter
	sampled telemetry.Counter
	// scratch holds per-shard runs assembled by ProcessBatch, reused
	// across calls (guarded by mu like the rest of the routing state).
	scratch [][]trace.Request
}

// NewSharded builds workers instances of the named model — shard i
// seeded with shardpipe.ShardSeed(opts.Seed, i) — behind a batched
// fan-out pipeline. The model must declare CapSharded. Spatial
// sampling (opts.SamplingRate) is applied at the router; sub-models
// are built unsampled and serial.
func NewSharded(name string, workers int, opts Options) (*Sharded, error) {
	info, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("model: unknown model %q (have %v)", name, Names())
	}
	if !info.Caps.Has(CapSharded) {
		return nil, fmt.Errorf("model: %s histograms are not shard-mergeable (no CapSharded)", info.Name)
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if workers < 1 {
		workers = 1
	}
	s := &Sharded{bytes: opts.Bytes != BytesOff}
	if opts.sampled() {
		s.filter = sampling.NewRate(opts.SamplingRate)
	}
	for i := 0; i < workers; i++ {
		sub := opts
		sub.Workers = 0
		sub.SamplingRate = 0
		sub.Seed = shardpipe.ShardSeed(opts.Seed, i)
		m, err := info.New(sub)
		if err != nil {
			return nil, err
		}
		src, ok := m.(histSource)
		if !ok || src.objHist() == nil {
			return nil, fmt.Errorf("model: %s declares CapSharded but exposes no mergeable histogram", info.Name)
		}
		s.subs = append(s.subs, m)
		s.sources = append(s.sources, src)
	}
	s.pipe = shardpipe.New(workers, func(shard int, batch []trace.Request) {
		// Errors are impossible here: serial sub-models never fail a
		// request.
		_ = s.subs[shard].ProcessBatch(batch)
	})
	return s, nil
}

// Workers returns the shard count.
func (s *Sharded) Workers() int { return s.pipe.Workers() }

// Process implements Model. It routes the request to its key's shard;
// the call returns once the request is enqueued, not processed.
func (s *Sharded) Process(req trace.Request) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.seen.Inc()
	if s.filter != nil && !s.filter.Sampled(req.Key) {
		return nil
	}
	s.sampled.Inc()
	s.pipe.Send(s.pipe.ShardOf(req.Key), req)
	return nil
}

// ProcessBatch implements Model: one lock acquisition and one
// pipe append per shard for the whole batch, instead of per request.
// Requests are partitioned into per-shard runs (arrival order preserved
// within each shard, which is all the SPSC pipe guarantees anyway), so
// the resulting model state is identical to per-request Process.
func (s *Sharded) ProcessBatch(reqs []trace.Request) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.seen.Add(uint64(len(reqs)))
	if s.scratch == nil {
		s.scratch = make([][]trace.Request, len(s.subs))
	}
	var admitted uint64
	for _, req := range reqs {
		if s.filter != nil && !s.filter.Sampled(req.Key) {
			continue
		}
		admitted++
		shard := s.pipe.ShardOf(req.Key)
		s.scratch[shard] = append(s.scratch[shard], req)
	}
	s.sampled.Add(admitted)
	for i, run := range s.scratch {
		if len(run) > 0 {
			s.pipe.SendBatch(i, run)
			s.scratch[i] = run[:0]
		}
	}
	return nil
}

// scale is the distance rescale undoing both samplings: keyspace
// partition (×W) and spatial filter (×1/R).
func (s *Sharded) scale() float64 {
	scale := float64(len(s.subs))
	if s.filter != nil {
		scale /= s.filter.Rate()
	}
	return scale
}

// withWorkersParked runs fn while no worker mutates shard state: after
// Close directly, before it inside a pipe quiesce. The caller holds mu.
func (s *Sharded) withWorkersParked(fn func()) {
	if s.closed {
		fn()
	} else {
		s.pipe.Quiesce(fn)
	}
}

// mergeObjectInto merges the shard object histograms into dst. Same
// safety contract as withWorkersParked's fn.
func (s *Sharded) mergeObjectInto(dst *histogram.Dense) {
	dst.Reset()
	for _, src := range s.sources {
		dst.Merge(src.objHist())
	}
}

// mergedObject merges the shard object histograms into one curve; same
// safety contract as mergeObjectInto.
func (s *Sharded) mergedObject() *mrc.Curve {
	merged := histogram.NewDense(1024)
	s.mergeObjectInto(merged)
	return mrc.FromHistogram(merged, s.scale())
}

// mergedByte merges the shard byte histograms; same safety contract as
// mergedObject.
func (s *Sharded) mergedByte() *mrc.Curve {
	merged := histogram.NewLog()
	for _, src := range s.sources {
		if h := src.byteHist(); h != nil {
			merged.Merge(h)
		}
	}
	return mrc.FromHistogram(merged, s.scale())
}

// Snapshot implements Model: the merged curve of the stream so far.
// Before Close it quiesces the pipe — partial batches flush, workers
// park at a barrier, the merge reads the worker-owned histograms
// race-free, and the workers resume; after Close it reads the drained
// histograms directly. Both merge the same histograms, so a read just
// before Close is bit-identical to one after it.
func (s *Sharded) Snapshot() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := Snapshot{Stats: s.stats()}
	s.withWorkersParked(func() {
		snap.Object = s.mergedObject()
		if s.bytes {
			snap.Byte = s.mergedByte()
		}
	})
	return snap
}

// ReadObjectHist implements Model: it merges the shard object
// histograms into dst during the same quiesce Snapshot uses, and
// returns the W/R rescale.
func (s *Sharded) ReadObjectHist(dst *histogram.Dense) (scale float64, st Stats, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st = s.stats()
	s.withWorkersParked(func() { s.mergeObjectInto(dst) })
	return s.scale(), st, true
}

// Stats implements Model, reporting router-side counters.
func (s *Sharded) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats()
}

// stats reads the router-side counters; the caller holds mu.
func (s *Sharded) stats() Stats { return Stats{Seen: s.seen.Load(), Sampled: s.sampled.Load()} }

// Footprint implements Model: the sum of the shard sub-models'
// footprints. Before Close it quiesces the pipe so the worker-owned
// structures are read race-free; after Close it reads them directly.
func (s *Sharded) Footprint() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total int64
	s.withWorkersParked(func() {
		for _, sub := range s.subs {
			total += sub.Footprint()
		}
	})
	return total
}

// Close implements Model: it flushes the pipeline and joins its worker
// goroutines. Safe to call repeatedly.
func (s *Sharded) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.pipe.Close()
		s.closed = true
	}
	return nil
}

// MetricsInto implements Model: router stream counters, the pipe's
// batch/queue metrics, and each shard sub-model's metrics under a
// shard<i>_ prefix. All registered values are atomics, safe to
// scrape while the pipeline streams.
func (s *Sharded) MetricsInto(set *telemetry.Set, prefix string) {
	set.CounterFunc(prefix+"requests_seen_total", "requests offered to the router", s.seen.Load)
	set.CounterFunc(prefix+"requests_sampled_total", "requests admitted past spatial sampling", s.sampled.Load)
	s.pipe.MetricsInto(set, prefix+"pipe_")
	for i, sub := range s.subs {
		sub.MetricsInto(set, fmt.Sprintf("%sshard%d_", prefix, i))
	}
}
