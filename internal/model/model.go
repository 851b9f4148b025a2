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
// A Model is built by New (or a registry factory), fed requests with
// Process (or the ProcessAll helper), and finalized by the first call
// to ObjectMRC or ByteMRC. Finalization flushes any buffered state
// (partial Counter Stacks batches, in-flight sharded pipelines);
// afterwards Process returns ErrFinalized.
//
// For online monitoring — the shadow-profiler deployment the source
// paper motivates — Snapshot reads the curve of the stream so far
// WITHOUT finalizing: buffered state is evaluated on copies (or
// behind a momentary pipeline quiesce for sharded models), the live
// state is untouched, and Process stays legal afterwards. A snapshot
// taken at end-of-stream is bit-identical to the finalized curve; the
// conformance suite pins this for every registry entry.
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

// ErrFinalized is returned by Process once a curve accessor has been
// called: the model's histograms are frozen.
var ErrFinalized = errors.New("model: Process after curve read")

// DefaultK is the K-LRU sampling size assumed when Options.K is zero —
// Redis's default maxmemory-samples.
const DefaultK = 5

// ByteMode selects byte-granularity distance handling for models with
// CapBytes.
type ByteMode uint8

// Byte modes. Modes beyond BytesOn are KRR-specific tracker choices;
// other byte-capable models treat every non-off mode as BytesOn.
const (
	// BytesOff records object-granularity distances only; ByteMRC
	// returns nil.
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
	// CapBytes: the model can emit byte-granularity curves (ByteMRC
	// non-nil when built with a byte mode).
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
	// Finalized reports whether a curve accessor has frozen the model.
	Finalized bool
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

// Model is a streaming MRC constructor: feed it a request stream,
// then read the curve.
//
// Serial models are not safe for concurrent use; shard the stream
// (see Sharded, whose Snapshot and Process are internally serialized)
// or serialize calls externally.
type Model interface {
	// Process feeds one request. It returns ErrFinalized after a curve
	// accessor has been called.
	Process(req trace.Request) error
	// ObjectMRC finalizes the model and returns the miss ratio curve
	// over object-count cache sizes.
	ObjectMRC() *mrc.Curve
	// ByteMRC finalizes the model and returns the curve over byte
	// cache sizes, or nil when the model was not built with a byte
	// mode (or lacks CapBytes).
	ByteMRC() *mrc.Curve
	// Snapshot returns the curves of the stream so far without
	// finalizing: Process stays legal afterwards, and a snapshot taken
	// at end-of-stream is bit-identical to the finalized curves.
	Snapshot() Snapshot
	// Stats reports stream counters.
	Stats() Stats
}

// HistReader is implemented by models whose live object curve is
// mrc.FromHistogram of one dense histogram: krr (every update method),
// krr-bucket, olken, mimir, and Sharded over any of them. It is the
// cheap curve read for a model behind a lock — copy the histogram
// under the lock, build or walk the curve after releasing it.
type HistReader interface {
	// ReadObjectHist copies the object histogram into dst, reusing
	// dst's storage, and returns the distance scale and the stream
	// counters at the moment of the copy: mrc.FromHistogram(dst, scale)
	// is then bit-identical to Snapshot().Object. Like Snapshot it
	// does not finalize. ok is false when the model has no such
	// histogram; dst is untouched and callers fall back to Snapshot.
	ReadObjectHist(dst *histogram.Dense) (scale float64, st Stats, ok bool)
}

// MetricSource is implemented by models that expose live internal
// telemetry. Every registry-built model and the Sharded wrapper
// implement it; a monitoring daemon registers the model's counters
// into its exposition set once at startup and scrapes are then
// atomic reads, safe while Process streams on another goroutine.
type MetricSource interface {
	// MetricsInto registers the model's metrics under prefix.
	MetricsInto(set *telemetry.Set, prefix string)
}

// FootprintSource is implemented by models that can report their
// resident metadata size — the §5.6 memory-overhead accounting
// extended to every technique. Footprint must be called under the
// same serialization as Process (it reads live map and slice
// headers); concurrent consumers cache the result in an atomic
// between calls rather than registering it as a live gauge.
type FootprintSource interface {
	// Footprint returns the model's estimated resident metadata in
	// bytes.
	Footprint() int64
}

// FootprintOf returns m's footprint when it implements
// FootprintSource, else 0.
func FootprintOf(m Model) int64 {
	if fs, ok := m.(FootprintSource); ok {
		return fs.Footprint()
	}
	return 0
}

// BatchProcessor is implemented by models with a batched ingest fast
// path: one ProcessBatch call is equivalent to calling Process on each
// request in order, but amortizes per-call overhead (locking, shard
// routing, stream counters) over the whole batch. The wire ingest plane
// and ProcessAll feed requests through this interface.
type BatchProcessor interface {
	ProcessBatch(reqs []trace.Request) error
}

// ProcessBatch feeds a whole batch to m through its BatchProcessor
// fast path when it has one, falling back to per-request Process. The
// two paths produce identical model state.
func ProcessBatch(m Model, reqs []trace.Request) error {
	if bp, ok := m.(BatchProcessor); ok {
		return bp.ProcessBatch(reqs)
	}
	for _, req := range reqs {
		if err := m.Process(req); err != nil {
			return err
		}
	}
	return nil
}

// ProcessAll drains a reader into m in 64-request batches, using the
// trace.BatchReader fast path when available and feeding each batch
// through ProcessBatch. It stops at the first Process error.
func ProcessAll(m Model, r trace.Reader) error {
	var buf [64]trace.Request
	for {
		n, err := trace.ReadBatch(r, buf[:])
		if n > 0 {
			if perr := ProcessBatch(m, buf[:n]); perr != nil {
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

// finalizer is the shared Process-after-read guard embedded by every
// adapter.
type finalizer struct {
	finalized bool
}

func (f *finalizer) finalize() { f.finalized = true }

// guard returns ErrFinalized once the model is frozen.
func (f *finalizer) guard() error {
	if f.finalized {
		return ErrFinalized
	}
	return nil
}
