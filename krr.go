// Package krr is a Go library for modeling random sampling-based LRU
// caches ("K-LRU", as implemented by Redis): given a request stream it
// constructs the miss ratio curve (MRC) a K-LRU cache of any size
// would exhibit, in a single pass, using the KRR probabilistic stack
// algorithm from
//
//	Junyao Yang, Yuchen Wang, Zhenlin Wang.
//	"Efficient Modeling of Random Sampling-Based LRU." ICPP 2021.
//
// The package is a facade over the implementation packages:
//
//   - Models (internal/model) — the unified streaming layer and the
//     only way to build a model: every MRC technique (KRR, Olken,
//     SHARDS, AET, StatStack, Counter Stacks, MIMIR, NSP LFU/MRU,
//     Che/Fagin) behind one Model interface and name→factory registry;
//     see Models, NewModel, BuildMRC and BuildMRCWith. The facade
//     exports no technique kernel of its own. The KRR models
//     (krr, krr-topdown, krr-linear, krr-bucket) wrap the stacks of
//     internal/core with SHARDS-style spatial sampling and, for krr*,
//     byte-granularity distances for variable object sizes.
//   - Simulators (internal/simulator, internal/redislike) — ground
//     truth: exact LRU, K-LRU, and a Redis-like engine.
//   - Baselines (internal/olken, internal/shards) — the exact-LRU
//     stack kernel behind the olken and shards models, and fixed-size
//     SHARDS. Mattson's linear "Basic Stack" is the krr-linear model.
//   - Workloads (internal/workload) — synthetic MSR-, YCSB- and
//     Twitter-like request generators.
//
// # Quick start
//
//	gen := krr.PresetReader("msr-web", 1.0, 42, false)
//	curve, err := krr.BuildMRC(krr.Limit(gen, 1_000_000), krr.ModelOptions{
//		K:            10,    // Redis maxmemory-samples (0 means DefaultK = 5)
//		SamplingRate: 0.001, // SHARDS spatial sampling
//	})
//	missRatio := curve.Eval(500_000) // cache of 500k objects
//
// For streaming use, NewModel builds the same model (or any other
// registered one) to feed request by request and read with Snapshot
// while the stream runs.
package krr

import (
	"krr/internal/core"
	"krr/internal/model"
	"krr/internal/mrc"
	"krr/internal/sampling"
	"krr/internal/simulator"
	"krr/internal/trace"
	"krr/internal/workload"
)

// Version is the library version.
const Version = "1.0.0"

// Request is one cache reference: an opaque 64-bit key, an object
// size in bytes, and an operation.
type Request = trace.Request

// Op is a request operation.
type Op = trace.Op

// Operations.
const (
	OpGet    = trace.OpGet
	OpSet    = trace.OpSet
	OpDelete = trace.OpDelete
)

// Reader streams requests; Next returns io.EOF at the end.
type Reader = trace.Reader

// Trace is an in-memory request sequence.
type Trace = trace.Trace

// Curve is a miss ratio curve.
type Curve = mrc.Curve

// ByteMode selects byte-granularity distance handling for variable
// object sizes (ModelOptions.Bytes).
type ByteMode = model.ByteMode

// Byte modes.
const (
	// BytesOff disables byte-granularity distances.
	BytesOff = model.BytesOff
	// BytesOn enables the model's native byte tracking (the paper's
	// sizeArray for KRR, exact for tree stacks).
	BytesOn = model.BytesOn
	// BytesUniform estimates byte distances assuming uniform sizes.
	BytesUniform = model.BytesUniform
	// BytesSizeArray enables the paper's var-KRR sizeArray.
	BytesSizeArray = model.BytesSizeArray
	// BytesFenwick enables exact Fenwick-tree byte distances.
	BytesFenwick = model.BytesFenwick
)

// DefaultBucketRatio is the krr-bucket model's default geometric
// bucket growth ratio (ModelOptions.BucketRatio).
const DefaultBucketRatio = core.DefaultBucketRatio

// BuildMRC drains the reader through the krr model — the paper's KRR
// stack with backward updates — and returns the object-granularity
// miss ratio curve. It is BuildMRCWith("krr", r, opts): opts.K = 0
// means DefaultK, and opts.Workers > 1 fans the requests out across
// the sharded pipeline.
func BuildMRC(r Reader, opts ModelOptions) (*Curve, error) {
	return BuildMRCWith("krr", r, opts)
}

// Model is a streaming MRC constructor from the unified model layer:
// any registered technique (KRR, Olken, SHARDS, AET, Counter Stacks,
// MIMIR, ...) behind one interface.
type Model = model.Model

// ModelOptions configures any registered model; the zero value is
// valid (K = 5, no sampling, object granularity, serial).
type ModelOptions = model.Options

// ModelInfo describes one registered model: name, provenance, cost
// summary, and capability flags.
type ModelInfo = model.Info

// ModelSnapshot is a model's one curve read (see Model.Snapshot): the
// curves of the stream so far, with Process still legal afterwards, so
// a live stream may be read any number of times. cmd/krrserve serves
// these over HTTP.
type ModelSnapshot = model.Snapshot

// Models lists every registered MRC model, sorted by name.
func Models() []ModelInfo { return model.All() }

// NewModel builds a registered model by name (or alias, e.g. "lru").
// ModelOptions.Workers > 1 wraps it in the sharded fan-out pipeline.
func NewModel(name string, opts ModelOptions) (Model, error) {
	return model.New(name, opts)
}

// BuildMRCWith drains the reader through the named registered model
// and returns the object-granularity miss ratio curve. It closes the
// model before returning, so a sharded build leaves no workers behind.
func BuildMRCWith(name string, r Reader, opts ModelOptions) (*Curve, error) {
	m, err := model.New(name, opts)
	if err != nil {
		return nil, err
	}
	defer m.Close()
	if err := model.ProcessAll(m, r); err != nil {
		return nil, err
	}
	return m.Snapshot().Object, nil
}

// KPrimeFor returns the corrected stack exponent K′ = K^1.4 used to
// model a K-LRU cache with sampling size K.
func KPrimeFor(k int) float64 { return core.KPrimeFor(k) }

// MAE is the mean absolute error between two curves evaluated at the
// given cache sizes — the paper's accuracy metric.
func MAE(a, b *Curve, at []uint64) float64 { return mrc.MAE(a, b, at) }

// EvenSizes returns n cache sizes evenly spread over (0, wss].
func EvenSizes(wss uint64, n int) []uint64 { return mrc.EvenSizes(wss, n) }

// DefaultSamplingRate is the paper's default spatial sampling rate.
const DefaultSamplingRate = sampling.DefaultRate

// SamplingRateFor picks a spatial sampling rate that keeps at least
// ~8K objects in the sample for a workload with the given number of
// distinct objects.
func SamplingRateFor(distinctObjects int) float64 {
	return sampling.RateFor(distinctObjects)
}

// Limit bounds a reader to at most n requests.
func Limit(r Reader, n int) Reader { return trace.LimitReader(r, n) }

// Collect materializes up to n requests.
func Collect(r Reader, n int) (*Trace, error) { return trace.Collect(r, n) }

// PresetNames lists the built-in synthetic workload presets.
func PresetNames() []string { return workload.Names() }

// PresetReader instantiates a built-in workload preset as an
// unbounded request stream. scale multiplies the preset's key space;
// variable selects heterogeneous object sizes. It returns nil for an
// unknown preset name.
func PresetReader(name string, scale float64, seed uint64, variable bool) Reader {
	p, ok := workload.ByName(name)
	if !ok {
		return nil
	}
	return p.New(scale, seed, variable)
}

// Cache is a ground-truth cache simulator.
type Cache = simulator.Cache

// NewKLRUCache builds a random sampling-based LRU cache simulator
// with an object-count capacity, sampling size k, and "placing back"
// sampling (the Redis variant).
func NewKLRUCache(capacityObjects, k int, seed uint64) Cache {
	return simulator.NewKLRU(simulator.ObjectCapacity(capacityObjects), k, true, seed)
}

// NewKLRUByteCache is NewKLRUCache with a byte capacity.
func NewKLRUByteCache(capacityBytes uint64, k int, seed uint64) Cache {
	return simulator.NewKLRU(simulator.ByteCapacity(capacityBytes), k, true, seed)
}

// NewLRUCache builds an exact LRU cache simulator.
func NewLRUCache(capacityObjects int) Cache {
	return simulator.NewLRU(simulator.ObjectCapacity(capacityObjects))
}

// SimulateMRC produces a ground-truth K-LRU curve by simulating the
// trace at each capacity in parallel (workers <= 0 uses a default).
func SimulateMRC(tr *Trace, k int, sizes []uint64, seed uint64, workers int) (*Curve, error) {
	return simulator.KLRUMRC(tr, k, sizes, seed, workers)
}
