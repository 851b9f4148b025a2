// Package model is the unified streaming layer over every miss-ratio
// curve technique in this repository. Byrne's survey ("A Survey of
// Miss-Ratio Curve Construction Techniques") frames KRR, Olken stacks,
// SHARDS, AET, Counter Stacks and MIMIR as one abstraction — a
// one-pass consumer of a request stream that emits an MRC — and this
// package makes that abstraction concrete: a Model interface, a
// validated Options struct shared by every technique, and a
// name→factory registry with capability flags so CLIs, experiments and
// benchmarks enumerate models instead of hard-wiring them.
//
// # Lifecycle
//
// A Model is built by New (or a registry factory) and fed requests
// with Process or ProcessBatch (or the ProcessAll helper). It has one
// curve read, Snapshot: the curves of the stream so far, evaluated
// without disturbing the live state (buffered state, such as a partial
// Counter Stacks batch, is evaluated on copies; a sharded pipeline is
// momentarily quiesced), so Process stays legal afterwards and a read
// may be repeated at any point of a live stream — the shadow-profiler
// deployment the source paper motivates. ReadObjectHist is the same
// object read as a histogram copy, for callers that read under a lock.
//
// Close releases a model's resources. Only the Sharded wrapper holds
// any (its worker goroutines): after Close it rejects Process and
// ProcessBatch with ErrClosed, while its reads keep returning the
// drained curves. Close is a no-op on every serial model.
//
// # Seeding convention
//
// All model randomness derives from Options.Seed, threaded by each
// adapter into constructors that take positional seeds (olken.New,
// nsp.New) exactly once. Models with no internal randomness — AET,
// Counter Stacks, MIMIR, and the deterministic hash-based spatial
// sampling filter — ignore the seed and are bit-reproducible by
// construction. Sharded wrappers derive shard i's seed as
// shardpipe.ShardSeed(Seed, i), so a model and its sharded form stay
// deterministic in the one configured seed. Two models built from the
// same (name, Options) over the same stream always produce identical
// curves; the registry conformance suite enforces this for every
// entry.
package model

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"krr/internal/cheform"
	"krr/internal/core"
	"krr/internal/histogram"
	"krr/internal/mrc"
	"krr/internal/telemetry"
	"krr/internal/trace"
)

// ErrClosed is returned by Process and ProcessBatch after Close on a
// model that holds resources (Sharded).
var ErrClosed = errors.New("model: Process after Close")

// DefaultK is the K-LRU sampling size assumed when Options.K is zero —
// Redis's default maxmemory-samples.
const DefaultK = 5

// ByteMode selects byte-granularity distance handling for models with
// CapBytes.
type ByteMode uint8

// Byte modes. Modes beyond BytesOn are KRR-specific tracker choices;
// other byte-capable models treat every non-off mode as BytesOn.
const (
	// BytesOff records object-granularity distances only; snapshots
	// carry no byte curve.
	BytesOff ByteMode = iota
	// BytesOn enables the model's native byte tracking (exact for tree
	// stacks, the paper's sizeArray for KRR).
	BytesOn
	// BytesUniform estimates byte distances as φ × mean object size —
	// the uniform-size assumption ("uni-KRR", §5.4).
	BytesUniform
	// BytesSizeArray forces the paper's logarithmic sizeArray
	// (Algorithm 3, "var-KRR").
	BytesSizeArray
	// BytesFenwick forces the exact Fenwick-tree byte tracker.
	BytesFenwick
)

// String names the mode.
func (m ByteMode) String() string {
	switch m {
	case BytesOff:
		return "off"
	case BytesOn:
		return "on"
	case BytesUniform:
		return "uniform"
	case BytesSizeArray:
		return "sizearray"
	case BytesFenwick:
		return "fenwick"
	default:
		return "bytemode?"
	}
}

// ByteModeByName parses a byte mode mnemonic.
func ByteModeByName(name string) (ByteMode, bool) {
	switch name {
	case "off", "":
		return BytesOff, true
	case "on":
		return BytesOn, true
	case "uniform":
		return BytesUniform, true
	case "sizearray":
		return BytesSizeArray, true
	case "fenwick":
		return BytesFenwick, true
	}
	return BytesOff, false
}

// Caps flags what a model supports. The registry conformance suite
// holds every entry to its declared flags.
type Caps uint8

const (
	// CapBytes: the model can emit byte-granularity curves (a non-nil
	// Snapshot.Byte when built with a byte mode).
	CapBytes Caps = 1 << iota
	// CapDeletes: OpDelete removes the object from the modeled stack
	// (its next reference is a cold miss). Models without this flag
	// ignore deletes entirely.
	CapDeletes
	// CapSharded: distances measured on a uniform hash partition of
	// the keyspace are unbiased 1/W-scaled samples and the model's
	// histograms merge exactly, so the Sharded wrapper applies.
	CapSharded
)

// Has reports whether all flags in want are set.
func (c Caps) Has(want Caps) bool { return c&want == want }

// String renders set flags as a comma list.
func (c Caps) String() string {
	var parts []string
	if c.Has(CapBytes) {
		parts = append(parts, "bytes")
	}
	if c.Has(CapDeletes) {
		parts = append(parts, "deletes")
	}
	if c.Has(CapSharded) {
		parts = append(parts, "sharded")
	}
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, ",")
}

// Options configures any registered model. The zero value is valid
// and means: K = DefaultK, seed 0, no spatial sampling, object
// granularity only, serial.
type Options struct {
	// K is the K-LRU sampling size, used by the K-LRU models (krr*)
	// and ignored by exact-LRU techniques. 0 means DefaultK.
	K int
	// Seed fixes all model randomness (see the package seeding
	// convention).
	Seed uint64
	// SamplingRate applies SHARDS-style spatial sampling when in
	// (0, 1); 0 or 1 disables it. For the shards* models — which are
	// sampling techniques — it sets the (starting) sample rate
	// instead, with the technique's own default when 0.
	SamplingRate float64
	// Bytes selects byte-granularity distance handling; non-off
	// requires CapBytes.
	Bytes ByteMode
	// Workers > 1 wraps the model in the sharded fan-out pipeline
	// (requires CapSharded); 0 or 1 builds it serial.
	Workers int
	// BucketRatio sets the krr-bucket model's geometric bucket growth
	// ratio, in [1, core.MaxBucketRatio]; 0 means the technique's
	// default (core.DefaultBucketRatio). Other models ignore it.
	BucketRatio float64
	// AnalyticAlpha is the fallback Zipf exponent the closed-form
	// analytic models (che, fagin) use when the online rank-frequency
	// fit is degenerate (analysis.ZipfFit's 0 sentinel), in
	// (0, cheform.MaxAlpha]; 0 means the technique's default
	// (cheform.DefaultAlpha). Other models ignore it.
	AnalyticAlpha float64
}

// k returns the effective sampling size.
func (o Options) k() int {
	if o.K <= 0 {
		return DefaultK
	}
	return o.K
}

// sampled reports whether spatial sampling is active.
func (o Options) sampled() bool { return o.SamplingRate > 0 && o.SamplingRate < 1 }

// Validate checks field ranges (capability cross-checks happen in
// New, where the target model is known).
func (o Options) Validate() error {
	if o.K < 0 {
		return fmt.Errorf("model: options K = %d, must be >= 0", o.K)
	}
	if o.SamplingRate < 0 || o.SamplingRate > 1 {
		return fmt.Errorf("model: sampling rate %v out of [0, 1]", o.SamplingRate)
	}
	if o.Bytes > BytesFenwick {
		return fmt.Errorf("model: unknown byte mode %d", o.Bytes)
	}
	if o.Workers < 0 {
		return fmt.Errorf("model: options Workers = %d, must be >= 0", o.Workers)
	}
	if o.BucketRatio != 0 && (o.BucketRatio < 1 || o.BucketRatio > core.MaxBucketRatio) {
		return fmt.Errorf("model: bucket ratio %v out of [1, %v]", o.BucketRatio, core.MaxBucketRatio)
	}
	if o.AnalyticAlpha != 0 && (o.AnalyticAlpha < 0 || o.AnalyticAlpha > cheform.MaxAlpha) {
		return fmt.Errorf("model: analytic alpha %v out of (0, %v]", o.AnalyticAlpha, cheform.MaxAlpha)
	}
	return nil
}

// Stats reports a model's stream counters.
type Stats struct {
	// Seen is the number of requests offered via Process.
	Seen uint64
	// Sampled is the number admitted past spatial sampling (== Seen
	// when sampling is off).
	Sampled uint64
}

// Snapshot is a point-in-time curve read: the curves the model would
// emit if the stream ended at the moment it was taken, plus the stream
// counters at that moment.
type Snapshot struct {
	// Object is the curve over object-count cache sizes.
	Object *mrc.Curve
	// Byte is the curve over byte cache sizes; nil without a byte mode.
	Byte *mrc.Curve
	// Stats are the stream counters when the snapshot was taken.
	Stats Stats
}

// Model is a streaming MRC constructor: a one-pass consumer of a
// request stream whose curves may be read at any point of it.
//
// Serial models are not safe for concurrent use; shard the stream
// (see Sharded, whose methods are internally serialized) or serialize
// calls externally.
type Model interface {
	// Process feeds one request.
	Process(req trace.Request) error
	// ProcessBatch is equivalent to calling Process on each request in
	// order, but amortizes per-call overhead (locking, shard routing,
	// stream counters) over the whole batch.
	ProcessBatch(reqs []trace.Request) error
	// Snapshot returns the curves of the stream so far. It leaves the
	// stream state untouched: Process stays legal afterwards, and
	// repeated reads at one stream position are bit-identical.
	Snapshot() Snapshot
	// ReadObjectHist copies the object histogram into dst, reusing
	// dst's storage, and returns the distance scale and the stream
	// counters at the moment of the copy: mrc.FromHistogram(dst, scale)
	// is then bit-identical to Snapshot().Object. It is the cheap curve
	// read for a model behind a lock — copy under the lock, build or
	// walk the curve after releasing it. ok is false when the model's
	// object curve is not one dense histogram's (only krr*, olken,
	// mimir, lfu, mru and Sharded have one); dst is then untouched and
	// callers use Snapshot.
	ReadObjectHist(dst *histogram.Dense) (scale float64, st Stats, ok bool)
	// Stats reports stream counters.
	Stats() Stats
	// MetricsInto registers the model's live telemetry under prefix.
	// Registered values are atomics, so a scrape may read them while
	// Process streams on another goroutine.
	MetricsInto(set *telemetry.Set, prefix string)
	// Footprint returns the model's estimated resident metadata in
	// bytes — the §5.6 memory-overhead accounting extended to every
	// technique. It must be called under the same serialization as
	// Process (it reads live map and slice headers); concurrent
	// consumers cache the result between calls.
	Footprint() int64
	// Close releases the model's resources; see the package Lifecycle.
	Close() error
}

// FootprintOf and ProcessBatch are the function forms of m.Footprint
// and m.ProcessBatch, kept for the benchmark harness (bench/krrbench),
// which calls them.

// FootprintOf returns m.Footprint().
func FootprintOf(m Model) int64 { return m.Footprint() }

// ProcessBatch is m.ProcessBatch(reqs).
func ProcessBatch(m Model, reqs []trace.Request) error { return m.ProcessBatch(reqs) }

// ProcessAll drains a reader into m in 64-request batches, using the
// trace.BatchReader fast path when available and feeding each batch
// to m.ProcessBatch. It stops at the first Process error.
func ProcessAll(m Model, r trace.Reader) error {
	var buf [64]trace.Request
	for {
		n, err := trace.ReadBatch(r, buf[:])
		if n > 0 {
			if perr := m.ProcessBatch(buf[:n]); perr != nil {
				return perr
			}
		}
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
	}
}
