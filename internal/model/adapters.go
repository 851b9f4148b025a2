package model

import (
	"krr/internal/aet"
	"krr/internal/cheform"
	"krr/internal/core"
	"krr/internal/counterstacks"
	"krr/internal/hashing"
	"krr/internal/histogram"
	"krr/internal/mimir"
	"krr/internal/mrc"
	"krr/internal/nsp"
	"krr/internal/olken"
	"krr/internal/sampling"
	"krr/internal/shards"
	"krr/internal/telemetry"
	"krr/internal/trace"
)

// streamModel is the one adapter shape every registered model is
// expressed in: a spatial filter (external, applied here, or internal
// to the technique and mirrored only for the Sampled counter), a
// per-request process function, an optional finalization flush, and
// curve constructors. CapSharded models additionally expose their raw
// histograms for the Sharded wrapper's merge.
type streamModel struct {
	finalizer
	// filter, when non-nil, drops unsampled requests before process —
	// used by models with no sampling of their own; their curves are
	// rescaled by 1/rate.
	filter *sampling.Filter
	// admit, when non-nil, mirrors an internal filter's admission
	// decision purely for the Sampled counter (aet, shards).
	admit     func(key uint64) bool
	process   func(trace.Request)
	flush     func() // optional; runs once at finalization
	objCurve  func() *mrc.Curve
	byteCurve func() *mrc.Curve // nil = byte curves off or unsupported
	// snapObj overrides the object curve for non-finalizing snapshots.
	// Required for models whose flush commits buffered state (Counter
	// Stacks); every other technique's objCurve is already
	// non-destructive and doubles as the snapshot read.
	snapObj func() *mrc.Curve
	// metrics, when non-nil, registers the technique's internal live
	// telemetry (stack gauges, update counters) alongside the adapter's
	// stream counters in MetricsInto.
	metrics func(*telemetry.Set, string)
	// footprint reports the technique's resident metadata bytes; must
	// be called under the same serialization as process.
	footprint func() uint64

	// Mergeable histograms for CapSharded models; nil otherwise.
	objDense *histogram.Dense
	byteLog  *histogram.Log

	// Stream counters are atomics so MetricsInto consumers (a /metrics
	// scrape) may read them while another goroutine drives Process.
	seen    telemetry.Counter
	sampled telemetry.Counter
}

// Process implements Model.
func (m *streamModel) Process(req trace.Request) error {
	if err := m.guard(); err != nil {
		return err
	}
	m.seen.Inc()
	if m.filter != nil {
		if !m.filter.Sampled(req.Key) {
			return nil
		}
		m.sampled.Inc()
	} else if m.admit == nil || m.admit(req.Key) {
		m.sampled.Inc()
	}
	m.process(req)
	return nil
}

// finalizeOnce flushes buffered state on the first curve read.
func (m *streamModel) finalizeOnce() {
	if !m.finalized && m.flush != nil {
		m.flush()
	}
	m.finalize()
}

// ObjectMRC implements Model.
func (m *streamModel) ObjectMRC() *mrc.Curve {
	m.finalizeOnce()
	return m.objCurve()
}

// ByteMRC implements Model.
func (m *streamModel) ByteMRC() *mrc.Curve {
	if m.byteCurve == nil {
		return nil
	}
	m.finalizeOnce()
	return m.byteCurve()
}

// Snapshot implements Model: the curve of the stream so far, read
// without flushing or freezing. Buffered state (a partial Counter
// Stacks batch) is evaluated through snapObj on copies; every other
// curve constructor is non-destructive, so the finalized read path and
// the snapshot path run the identical computation — which is what
// makes an end-of-stream snapshot bit-identical to the final curves.
func (m *streamModel) Snapshot() Snapshot {
	snap := Snapshot{Stats: m.Stats()}
	if m.snapObj != nil && !m.finalized {
		snap.Object = m.snapObj()
	} else {
		snap.Object = m.objCurve()
	}
	if m.byteCurve != nil {
		snap.Byte = m.byteCurve()
	}
	return snap
}

// Stats implements Model.
func (m *streamModel) Stats() Stats {
	return Stats{Seen: m.seen.Load(), Sampled: m.sampled.Load(), Finalized: m.finalized}
}

// MetricsInto implements MetricSource: the adapter's stream counters
// plus any technique-internal metrics under the same prefix.
func (m *streamModel) MetricsInto(set *telemetry.Set, prefix string) {
	set.CounterFunc(prefix+"requests_seen_total", "requests offered via Process", m.seen.Load)
	set.CounterFunc(prefix+"requests_sampled_total", "requests admitted past sampling", m.sampled.Load)
	if m.metrics != nil {
		m.metrics(set, prefix)
	}
}

// Footprint implements FootprintSource. Like Process it is not safe
// for concurrent use; callers serialize it against the stream.
func (m *streamModel) Footprint() int64 {
	if m.footprint == nil {
		return 0
	}
	return int64(m.footprint())
}

func (m *streamModel) objHist() *histogram.Dense { return m.objDense }
func (m *streamModel) byteHist() *histogram.Log  { return m.byteLog }

// extFilter builds the adapter-side spatial filter and the distance
// rescale that undoes it (1/R), for models that do not sample
// internally.
func extFilter(o Options) (*sampling.Filter, float64) {
	if !o.sampled() {
		return nil, 1
	}
	f := sampling.NewRate(o.SamplingRate)
	return f, 1 / f.Rate()
}

// --- KRR (core) -------------------------------------------------------

// coreByteMode maps the unified byte mode onto KRR's tracker choices;
// BytesOn means the paper's var-KRR sizeArray.
func coreByteMode(m ByteMode) core.ByteMode {
	switch m {
	case BytesUniform:
		return core.BytesUniform
	case BytesFenwick:
		return core.BytesFenwick
	case BytesOn, BytesSizeArray:
		return core.BytesSizeArray
	default:
		return core.BytesOff
	}
}

func newKRR(method core.UpdateMethod) func(Options) (Model, error) {
	return func(o Options) (Model, error) {
		filter, scale := extFilter(o)
		p, err := core.NewProfiler(core.Config{
			K:      o.k(),
			Seed:   o.Seed,
			Method: method,
			Bytes:  coreByteMode(o.Bytes),
		})
		if err != nil {
			return nil, err
		}
		m := &streamModel{
			filter:   filter,
			process:  p.Process,
			objCurve: func() *mrc.Curve { return mrc.FromHistogram(p.ObjHist(), scale) },
			objDense: p.ObjHist(),
			metrics:  p.Stack().MetricsInto,
		}
		m.footprint = func() uint64 {
			fp := p.Stack().MemoryOverheadBytes() + p.ObjHist().MemBytes()
			if m.byteLog != nil {
				fp += m.byteLog.MemBytes()
			}
			return fp
		}
		if o.Bytes != BytesOff {
			m.byteCurve = func() *mrc.Curve { return mrc.FromHistogram(p.ByteHist(), scale) }
			m.byteLog = p.ByteHist()
		}
		return m, nil
	}
}

// newKRRBucket builds the bucketized KRR stack model: the Eq. 4.1
// stay-probability evaluated at geometric-bucket granularity over one
// open-addressing key table, O(log M) per reference with no pow on
// the hot path.
// Object granularity only — byte trackers are tied to the exact
// per-position shifts the bucketized update does not perform.
func newKRRBucket(o Options) (Model, error) {
	filter, scale := extFilter(o)
	p, err := core.NewBucketProfiler(core.BucketConfig{
		K:     o.k(),
		Seed:  o.Seed,
		Ratio: o.BucketRatio,
	})
	if err != nil {
		return nil, err
	}
	return &streamModel{
		filter:    filter,
		process:   p.Process,
		objCurve:  func() *mrc.Curve { return mrc.FromHistogram(p.ObjHist(), scale) },
		objDense:  p.ObjHist(),
		metrics:   p.Stack().MetricsInto,
		footprint: func() uint64 { return p.Stack().MemoryOverheadBytes() + p.ObjHist().MemBytes() },
	}, nil
}

// --- Olken exact-LRU stack -------------------------------------------

func newOlken(o Options) (Model, error) {
	filter, scale := extFilter(o)
	p := olken.NewProfiler(o.Seed)
	m := &streamModel{
		filter:    filter,
		process:   p.Process,
		objCurve:  func() *mrc.Curve { return p.ObjectMRC(scale) },
		objDense:  p.ObjHist(),
		footprint: p.MemoryOverheadBytes,
	}
	if o.Bytes != BytesOff {
		m.byteCurve = func() *mrc.Curve { return p.ByteMRC(scale) }
		m.byteLog = p.ByteHist()
	}
	return m, nil
}

// --- SHARDS ----------------------------------------------------------

// shardsRate resolves the rate for the shards* models, for which
// SamplingRate is the technique's own parameter: 0 means the paper
// default, 1 disables sampling (degenerating to an exact stack).
func shardsRate(o Options) float64 {
	if o.SamplingRate == 0 {
		return sampling.DefaultRate
	}
	return o.SamplingRate
}

func newShardsFixedRate(o Options) (Model, error) {
	rate := shardsRate(o)
	s := shards.NewFixedRate(rate, o.Seed, true)
	admit := sampling.NewRate(rate)
	m := &streamModel{
		admit:     admit.Sampled,
		process:   s.Process,
		objCurve:  s.MRC,
		footprint: s.MemoryOverheadBytes,
	}
	if o.Bytes != BytesOff {
		m.byteCurve = s.ByteMRC
	}
	return m, nil
}

// DefaultFixedSizeObjects is the sample-set bound for the
// shards-fixedsize model, the paper's s_max (§2.4 / FAST '15 §4).
const DefaultFixedSizeObjects = 8192

func newShardsFixedSize(o Options) (Model, error) {
	start := o.SamplingRate
	if start == 0 {
		start = 1.0 // SHARDS_adj starts unsampled and adapts down
	}
	s := shards.NewFixedSize(start, DefaultFixedSizeObjects, o.Seed)
	return &streamModel{
		admit: func(key uint64) bool {
			return hashing.Mix64(key)%sampling.Modulus < s.Threshold()
		},
		process:   s.Process,
		objCurve:  s.MRC,
		footprint: s.MemoryOverheadBytes,
	}, nil
}

// --- AET / StatStack -------------------------------------------------

// newAETMonitor wires one reuse-time monitor behind the adapter. The
// spatial filter stays inside the monitor: AET measures reuse times in
// full-stream references, so the clock must tick on unsampled
// requests too (which is also why its curves need no rescaling).
func newAETMonitor(o Options, curve func(*aet.Monitor) *mrc.Curve) (Model, error) {
	mon := aet.New(o.SamplingRate)
	var admit func(uint64) bool
	if o.sampled() {
		admit = sampling.NewRate(o.SamplingRate).Sampled
	}
	return &streamModel{
		admit:     admit,
		process:   mon.Process,
		objCurve:  func() *mrc.Curve { return curve(mon) },
		footprint: mon.MemoryOverheadBytes,
	}, nil
}

func newAET(o Options) (Model, error) {
	return newAETMonitor(o, (*aet.Monitor).MRC)
}

func newStatStack(o Options) (Model, error) {
	return newAETMonitor(o, (*aet.Monitor).StatStackMRC)
}

// --- Counter Stacks --------------------------------------------------

func newCounterStacks(o Options) (Model, error) {
	filter, scale := extFilter(o)
	cs := counterstacks.New(counterstacks.Config{})
	return &streamModel{
		filter:    filter,
		process:   cs.Process,
		flush:     cs.Flush,
		objCurve:  func() *mrc.Curve { return mrc.FromHistogram(cs.Hist(), scale) },
		snapObj:   func() *mrc.Curve { return mrc.FromHistogram(cs.SnapshotHist(), scale) },
		footprint: cs.MemoryOverheadBytes,
	}, nil
}

// --- MIMIR -----------------------------------------------------------

func newMimir(o Options) (Model, error) {
	filter, scale := extFilter(o)
	m := mimir.New(mimir.DefaultBuckets)
	return &streamModel{
		filter:    filter,
		process:   m.Process,
		objCurve:  func() *mrc.Curve { return mrc.FromHistogram(m.Hist(), scale) },
		objDense:  m.Hist(),
		footprint: m.MemoryOverheadBytes,
	}, nil
}

// --- NSP policies (LFU, MRU) -----------------------------------------

func newNSP(policy nsp.Policy) func(Options) (Model, error) {
	return func(o Options) (Model, error) {
		filter, scale := extFilter(o)
		s := nsp.New(policy, o.Seed)
		return &streamModel{
			filter:    filter,
			process:   s.Process,
			objCurve:  func() *mrc.Curve { return mrc.FromHistogram(s.Hist(), scale) },
			footprint: s.MemoryOverheadBytes,
		}, nil
	}
}

// newMRU uses the exact O(1) transposition stack: the generic
// priority-sorted engine is not Mattson's stack for MRU (see nsp
// package docs), a divergence the difftest harness measures at up to
// ~0.43 MAE against exact simulation on loop traces.
func newMRU(o Options) (Model, error) {
	filter, scale := extFilter(o)
	s := nsp.NewMRU()
	return &streamModel{
		filter:    filter,
		process:   s.Process,
		objCurve:  func() *mrc.Curve { return mrc.FromHistogram(s.Hist(), scale) },
		footprint: s.MemoryOverheadBytes,
	}, nil
}

// --- Closed-form analytic (Che / Fagin) ------------------------------

// newAnalytic builds the instant-estimate tier: a cheform popularity
// fitter behind the adapter. No distance bookkeeping exists to merge,
// so no CapSharded; deletes don't change the popularity distribution,
// so no CapDeletes (the fitter ignores them, keeping curves invariant
// under delete injection). The fitter's curve read is non-destructive
// and deterministic in the sketch state, so objCurve doubles as the
// snapshot read and end-of-stream snapshots are bit-identical to the
// finalized curve.
func newAnalytic(variant cheform.Variant) func(Options) (Model, error) {
	return func(o Options) (Model, error) {
		filter, scale := extFilter(o)
		f, err := cheform.New(cheform.Config{
			Variant:      variant,
			DefaultAlpha: o.AnalyticAlpha,
		})
		if err != nil {
			return nil, err
		}
		return &streamModel{
			filter:    filter,
			process:   f.Process,
			objCurve:  func() *mrc.Curve { return f.Curve(scale) },
			footprint: f.MemoryOverheadBytes,
		}, nil
	}
}

// --- Registry --------------------------------------------------------

func init() {
	Register(Info{
		Name:       "krr",
		Aliases:    []string{"krr-backward"},
		Target:     "klru",
		Paper:      "Yang, Wang & Wang, ICPP '21",
		Complexity: "O(K log M) expected/ref",
		Space:      "O(M) array + open-address index",
		Caps:       CapBytes | CapDeletes | CapSharded,
		New:        newKRR(core.Backward),
	})
	Register(Info{
		Name:       "krr-topdown",
		Target:     "klru",
		Paper:      "Yang, Wang & Wang, ICPP '21 (Alg. 1)",
		Complexity: "O(K log² M) expected/ref",
		Space:      "O(M) array + open-address index",
		Caps:       CapBytes | CapDeletes | CapSharded,
		New:        newKRR(core.TopDown),
	})
	Register(Info{
		Name:       "krr-linear",
		Target:     "klru",
		Paper:      "Mattson et al. '70 walk, §2.2",
		Complexity: "O(M)/ref",
		Space:      "O(M) array + open-address index",
		Caps:       CapBytes | CapDeletes | CapSharded,
		New:        newKRR(core.Linear),
	})
	Register(Info{
		Name:       "krr-bucket",
		Target:     "klru",
		Paper:      "Yang, Wang & Wang, ICPP '21 × Saemundsson et al., SoCC '14 (buckets)",
		Complexity: "O(log M)/ref",
		Space:      "O(M) open-address key table + position order + O(log M) buckets",
		Caps:       CapDeletes | CapSharded,
		New:        newKRRBucket,
	})
	Register(Info{
		Name:       "olken",
		Aliases:    []string{"lru"},
		Target:     "lru",
		Paper:      "Olken '81 / Mattson et al. '70",
		Complexity: "O(log M)/ref",
		Space:      "O(M) treap + hash",
		Caps:       CapBytes | CapDeletes | CapSharded,
		New:        newOlken,
	})
	Register(Info{
		Name:       "shards",
		Target:     "lru",
		Paper:      "Waldspurger et al., FAST '15",
		Complexity: "O(log R·M) per sampled ref",
		Space:      "O(R·M) tree",
		Caps:       CapBytes | CapDeletes,
		New:        newShardsFixedRate,
	})
	Register(Info{
		Name:       "shards-fixedsize",
		Target:     "lru",
		Paper:      "Waldspurger et al., FAST '15 (SHARDS_adj)",
		Complexity: "O(log s_max) per sampled ref",
		Space:      "bounded: s_max objects",
		Caps:       CapDeletes,
		New:        newShardsFixedSize,
	})
	Register(Info{
		Name:       "aet",
		Target:     "lru",
		Paper:      "Hu et al., USENIX ATC '16",
		Complexity: "O(1) amortized/ref",
		Space:      "reuse-time histogram + last-seen map",
		Caps:       CapDeletes,
		New:        newAET,
	})
	Register(Info{
		Name:       "statstack",
		Target:     "lru",
		Paper:      "Eklöv & Hagersten, ISPASS '10",
		Complexity: "O(1) amortized/ref",
		Space:      "reuse-time histogram + last-seen map",
		Caps:       CapDeletes,
		New:        newStatStack,
	})
	Register(Info{
		Name:       "counterstacks",
		Target:     "lru",
		Paper:      "Wires et al., OSDI '14",
		Complexity: "O(C)/ref (C live counters)",
		Space:      "C HLL sketches",
		Caps:       0,
		New:        newCounterStacks,
	})
	Register(Info{
		Name:       "mimir",
		Target:     "lru",
		Paper:      "Saemundsson et al., SoCC '14",
		Complexity: "O(1) amortized/ref",
		Space:      "O(B) buckets + key map",
		Caps:       CapDeletes | CapSharded,
		New:        newMimir,
	})
	Register(Info{
		Name:       "che",
		Aliases:    []string{"che-approx"},
		Target:     "klru",
		Paper:      "Che, Tung & Wang, JSAC '02 / Berthet '17",
		Complexity: "O(log H)/ref (H head counters)",
		Space:      "O(1): H counters + HLL",
		Caps:       0,
		New:        newAnalytic(cheform.Che),
	})
	Register(Info{
		Name:       "fagin",
		Target:     "klru",
		Paper:      "Fagin '77 / Berthet '17",
		Complexity: "O(log H)/ref (H head counters)",
		Space:      "O(1): H counters + HLL",
		Caps:       0,
		New:        newAnalytic(cheform.Fagin),
	})
	Register(Info{
		Name:       "lfu",
		Target:     "lfu",
		Paper:      "Bilardi, Ekanadham & Pattnaik, CF '11 (NSP)",
		Complexity: "O(log M)/ref",
		Space:      "O(M) treap + maps",
		Caps:       0,
		New:        newNSP(nsp.LFU{}),
	})
	Register(Info{
		Name:       "mru",
		Target:     "mru",
		Paper:      "Mattson et al. '70 transposition stack",
		Complexity: "O(1)/ref",
		Space:      "O(M) position array + map",
		Caps:       0,
		New:        newMRU,
	})
}
