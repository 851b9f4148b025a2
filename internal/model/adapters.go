package model

import (
	"krr/internal/aet"
	"krr/internal/cheform"
	"krr/internal/core"
	"krr/internal/counterstacks"
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
// expressed in: one spatial filter (applied here, or owned by the
// technique's kernel, which then reports its own decision), a
// per-request process function, and curve constructors. Models whose
// object curve is one dense histogram's hold that histogram instead of
// an object curve constructor: ReadObjectHist copies it, and for the
// CapSharded ones the Sharded wrapper merges it.
type streamModel struct {
	// filter, when non-nil, drops unsampled requests before process —
	// used by models with no sampling of their own; their curves are
	// rescaled by 1/rate.
	filter *sampling.Filter
	// process handles one request that passed filter. Unused when
	// sample is set.
	process func(trace.Request)
	// sample, when non-nil, replaces process for a kernel that owns its
	// filter (sampled aet and statstack, shards-fixedsize): it takes
	// every request and reports whether the request passed, which is
	// what Sampled counts.
	sample func(trace.Request) bool
	// objCurve builds the object curve; nil when objDense is set. Like
	// byteCurve it must leave the model's state untouched.
	objCurve  func() *mrc.Curve
	byteCurve func() *mrc.Curve // nil = byte curves off or unsupported
	// metrics, when non-nil, registers the technique's internal live
	// telemetry (stack gauges, update counters) alongside the adapter's
	// stream counters in MetricsInto.
	metrics func(*telemetry.Set, string)
	// publish, when non-nil, copies the kernel's owner-written
	// telemetry into the atomics metrics reads. Process and
	// ProcessBatch call it once on return, the cadence of the stream
	// counters, so the kernel's per-reference path stays free of
	// atomics.
	publish func()
	// footprint reports the technique's resident metadata bytes; must
	// be called under the same serialization as process. Every adapter
	// sets it.
	footprint func() uint64

	// objDense, when non-nil, is the object histogram: the object curve
	// is mrc.FromHistogram(objDense, objScale). byteLog is the byte
	// histogram of the CapSharded models built with a byte mode.
	objDense *histogram.Dense
	objScale float64
	byteLog  *histogram.Log

	// Stream counters are atomics so MetricsInto consumers (a /metrics
	// scrape) may read them while another goroutine drives Process.
	seen    telemetry.Counter
	sampled telemetry.Counter
}

// Process implements Model.
func (m *streamModel) Process(req trace.Request) error {
	m.seen.Inc()
	switch {
	case m.sample != nil:
		if m.sample(req) {
			m.sampled.Inc()
		}
		return nil
	case m.filter != nil && !m.filter.Sampled(req.Key):
		return nil
	}
	m.sampled.Inc()
	m.process(req)
	if m.publish != nil {
		m.publish()
	}
	return nil
}

// ProcessBatch implements Model: Process's admission for each request,
// with one add per stream counter for the whole batch. The admission
// mode is chosen once per batch, not re-read per request: with a
// kernel as cheap as aet's the per-request re-check was measurable. Unsampled models, aet included, take the plain loop.
func (m *streamModel) ProcessBatch(reqs []trace.Request) error {
	m.seen.Add(uint64(len(reqs)))
	admitted := uint64(len(reqs))
	switch {
	case m.filter != nil:
		admitted = 0
		for _, req := range reqs {
			if m.filter.Sampled(req.Key) {
				admitted++
				m.process(req)
			}
		}
	case m.sample != nil:
		admitted = 0
		for _, req := range reqs {
			if m.sample(req) {
				admitted++
			}
		}
	default:
		for _, req := range reqs {
			m.process(req)
		}
	}
	m.sampled.Add(admitted)
	if m.publish != nil {
		m.publish()
	}
	return nil
}

// Snapshot implements Model: every curve constructor is
// non-destructive, so the read leaves the stream untouched.
func (m *streamModel) Snapshot() Snapshot {
	snap := Snapshot{Stats: m.Stats()}
	if m.objDense != nil {
		snap.Object = mrc.FromHistogram(m.objDense, m.objScale)
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
	return Stats{Seen: m.seen.Load(), Sampled: m.sampled.Load()}
}

// MetricsInto implements Model: the adapter's stream counters plus any
// technique-internal metrics under the same prefix.
func (m *streamModel) MetricsInto(set *telemetry.Set, prefix string) {
	set.CounterFunc(prefix+"requests_seen_total", "requests offered via Process", m.seen.Load)
	set.CounterFunc(prefix+"requests_sampled_total", "requests admitted past sampling", m.sampled.Load)
	if m.metrics != nil {
		m.metrics(set, prefix)
	}
}

// Footprint implements Model. Like Process it is not safe for
// concurrent use; callers serialize it against the stream.
func (m *streamModel) Footprint() int64 { return int64(m.footprint()) }

// ReadObjectHist implements Model for the models that hold a dense
// object histogram, and reports ok == false for the rest.
func (m *streamModel) ReadObjectHist(dst *histogram.Dense) (scale float64, st Stats, ok bool) {
	if m.objDense == nil {
		return 0, Stats{}, false
	}
	dst.CopyFrom(m.objDense)
	return m.objScale, m.Stats(), true
}

// Close implements Model: a serial model holds no resources.
func (m *streamModel) Close() error { return nil }

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

// newKRR builds the KRR stack model for one update method: the stack,
// its object histogram and, with a byte mode, a byte histogram. BytesOn
// means the paper's var-KRR sizeArray; BytesUniform estimates each byte
// distance as φ × mean object size.
func newKRR(method core.UpdateMethod) func(Options) (Model, error) {
	return func(o Options) (Model, error) {
		filter, scale := extFilter(o)
		opts := []core.Option{core.WithMethod(method)}
		switch o.Bytes {
		case BytesOn, BytesSizeArray:
			opts = append(opts, core.WithSizeArray())
		case BytesFenwick:
			opts = append(opts, core.WithFenwick())
		}
		st := core.NewStack(core.KPrimeFor(o.k()), o.Seed, opts...)
		obj := histogram.NewDense(1024)
		var byt *histogram.Log
		if o.Bytes != BytesOff {
			byt = histogram.NewLog()
		}
		uniform := o.Bytes == BytesUniform
		m := &streamModel{
			filter: filter,
			process: func(req trace.Request) {
				if req.Op == trace.OpDelete {
					st.Delete(req.Key)
					return
				}
				res := st.Reference(req.Key, req.Size)
				if res.Cold {
					obj.AddCold()
					if byt != nil {
						byt.AddCold()
					}
					return
				}
				obj.Add(res.Distance)
				switch {
				case byt == nil:
				case uniform:
					byt.Add(st.UniformByteDistance(res.Distance))
				default:
					byt.Add(res.ByteDistance)
				}
			},
			objDense: obj,
			objScale: scale,
			byteLog:  byt,
			metrics:  st.MetricsInto,
			publish:  st.Publish,
		}
		m.footprint = func() uint64 {
			fp := st.MemoryOverheadBytes() + obj.MemBytes()
			if byt != nil {
				fp += byt.MemBytes()
			}
			return fp
		}
		if byt != nil {
			m.byteCurve = func() *mrc.Curve { return mrc.FromHistogram(byt, scale) }
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
	ratio := o.BucketRatio
	if ratio == 0 {
		ratio = core.DefaultBucketRatio
	}
	st := core.NewBucketStack(core.KPrimeFor(o.k()), ratio, o.Seed)
	obj := histogram.NewDense(1024)
	return &streamModel{
		filter: filter,
		process: func(req trace.Request) {
			if req.Op == trace.OpDelete {
				st.Delete(req.Key)
				return
			}
			if res := st.Reference(req.Key, req.Size); res.Cold {
				obj.AddCold()
			} else {
				obj.Add(res.Distance)
			}
		},
		objDense:  obj,
		objScale:  scale,
		metrics:   st.MetricsInto,
		publish:   st.Publish,
		footprint: func() uint64 { return st.MemoryOverheadBytes() + obj.MemBytes() },
	}, nil
}

// --- Olken exact-LRU stack -------------------------------------------

func newOlken(o Options) (Model, error) {
	m, obj, scale := newOlkenStream(o)
	m.objDense, m.objScale = obj, scale
	return m, nil
}

// newOlkenStream builds the exact-LRU stream shared by olken and
// shards: the stack behind the adapter's filter, its object histogram
// and, with a byte mode, a byte histogram. The caller attaches the
// object curve: olken exposes the histogram as it is, shards applies
// SHARDS_adj to a copy.
func newOlkenStream(o Options) (*streamModel, *histogram.Dense, float64) {
	filter, scale := extFilter(o)
	st := olken.New(o.Seed)
	obj := histogram.NewDense(1024)
	var byt *histogram.Log
	if o.Bytes != BytesOff {
		byt = histogram.NewLog()
	}
	m := &streamModel{
		filter: filter,
		process: func(req trace.Request) {
			if req.Op == trace.OpDelete {
				st.Delete(req.Key)
				return
			}
			res := st.Reference(req.Key, req.Size)
			if res.Cold {
				obj.AddCold()
				if byt != nil {
					byt.AddCold()
				}
				return
			}
			obj.Add(res.Distance)
			if byt != nil {
				byt.Add(res.ByteDistance)
			}
		},
		byteLog: byt,
	}
	m.footprint = func() uint64 {
		fp := st.MemoryOverheadBytes() + obj.MemBytes()
		if byt != nil {
			fp += byt.MemBytes()
		}
		return fp
	}
	if byt != nil {
		m.byteCurve = func() *mrc.Curve { return mrc.FromHistogram(byt, scale) }
	}
	return m, obj, scale
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

// newShards is fixed-rate SHARDS: the olken stream at shardsRate, with
// the SHARDS_adj correction (Waldspurger et al., FAST '15). The
// sampled stream should hold round(Seen·R) requests; a shortfall means
// short-distance references went unsampled, so it is credited to
// distance 1. Seen and Sampled both count deletes, so the shortfall is
// sampling deviation alone (the histogram total has no deletes, and
// measured against it every sampled delete would count as a hit). The
// credit goes on a copy of the histogram, so repeated reads — mid-stream
// snapshots included — never compound it into the live counts.
func newShards(o Options) (Model, error) {
	o.SamplingRate = shardsRate(o)
	m, obj, scale := newOlkenStream(o)
	rate := 1.0
	if m.filter != nil {
		rate = m.filter.Rate()
	}
	m.objCurve = func() *mrc.Curve {
		expected := uint64(float64(m.seen.Load())*rate + 0.5)
		if sampled := m.sampled.Load(); expected > sampled {
			adjusted := obj.Clone()
			adjusted.AddN(1, expected-sampled)
			return mrc.FromHistogram(adjusted, scale)
		}
		return mrc.FromHistogram(obj, scale)
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
		sample:    s.Process,
		objCurve:  s.MRC,
		footprint: s.MemoryOverheadBytes,
	}, nil
}

// --- AET / StatStack -------------------------------------------------

// newAETMonitor wires one reuse-time monitor behind the adapter. The
// spatial filter stays inside the monitor: AET measures reuse times in
// full-stream references, so the clock must tick on unsampled
// requests too (which is also why its curves need no rescaling).
// Unsampled, the monitor admits everything and takes the plain
// process path.
func newAETMonitor(o Options, curve func(*aet.Monitor) *mrc.Curve) (Model, error) {
	mon := aet.New(o.SamplingRate)
	m := &streamModel{
		objCurve:  func() *mrc.Curve { return curve(mon) },
		footprint: mon.MemoryOverheadBytes,
	}
	if o.sampled() {
		m.sample = mon.Process
	} else {
		m.process = func(req trace.Request) { mon.Process(req) }
	}
	return m, nil
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
		objCurve:  func() *mrc.Curve { return mrc.FromHistogram(cs.SnapshotHist(), scale) },
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
		objDense:  m.Hist(),
		objScale:  scale,
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
			objDense:  s.Hist(),
			objScale:  scale,
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
		objDense:  s.Hist(),
		objScale:  scale,
		footprint: s.MemoryOverheadBytes,
	}, nil
}

// --- Closed-form analytic (Che / Fagin) ------------------------------

// newAnalytic builds the instant-estimate tier: a cheform popularity
// fitter behind the adapter. No distance bookkeeping exists to merge,
// so no CapSharded; deletes don't change the popularity distribution,
// so no CapDeletes (the fitter ignores them, keeping curves invariant
// under delete injection). The fitter's curve read is non-destructive
// and deterministic in the sketch state.
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
		New:        newShards,
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
