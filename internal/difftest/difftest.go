// Package difftest is the differential + metamorphic correctness
// harness for every MRC technique behind the internal/model registry.
//
// The oracle is the paper's own evaluation method (§5.3): brute-force
// simulation at a sweep of cache sizes is ground truth, and a model is
// correct when its one-pass curve stays within a per-model mean
// absolute error envelope of the simulated curve. SHARDS (FAST '15)
// and AET (ATC '16) are validated the same way in their own papers, so
// one harness covers every registered technique:
//
//   - klru-target models are checked against the K-LRU simulator,
//   - lru-target models against the exact-LRU simulator,
//   - lfu/mru-target models against the exact-priority simulator,
//   - CapBytes models additionally against the byte-capacity sweeps.
//
// Beyond the differential check, every curve is held to structural
// invariants (CheckCurve) and the models to metamorphic properties
// (see the _test files): trace-prefix consistency, seed-independence
// of deterministic techniques, and invariance under key relabeling.
//
// When a check fails on a randomized trace, the harness shrinks the
// trace by delta debugging (Shrink) and writes a replayable corpus
// file under corpus/; TestCorpusRegressions replays every corpus file
// on every run, so once-found bugs stay found.
package difftest

import (
	"fmt"

	"krr/internal/model"
	"krr/internal/mrc"
	"krr/internal/nsp"
	"krr/internal/simulator"
	"krr/internal/trace"
)

// Trial is one randomized workload the harness drives every model
// over: a materialized trace plus the knobs the reference simulations
// need. Trials are deterministic in their seed.
type Trial struct {
	Name  string
	Trace *trace.Trace
	// K is the K-LRU sampling size used for klru-target models and
	// their reference simulation.
	K int
	// Seed seeds the reference K-LRU simulation and every model build.
	Seed uint64
	// Points is the number of evaluation cache sizes (the paper uses
	// 25-40, §5.3).
	Points int
	// Bytes additionally checks byte-granularity curves of CapBytes
	// models against byte-capacity simulations (requires a
	// variable-size trace to be meaningful).
	Bytes bool
}

// Result is one (model, trial) differential comparison.
type Result struct {
	Model    string
	Trial    string
	Granular string // "objects" or "bytes"
	MAE      float64
	Envelope float64
	// Err reports a structural failure (invariant violation, build
	// error); MAE is meaningless when set.
	Err error
}

// Pass reports whether the comparison stayed inside the envelope with
// no structural failure.
func (r Result) Pass() bool { return r.Err == nil && r.MAE <= r.Envelope }

// String renders one row of the self-test report.
func (r Result) String() string {
	status := "ok"
	switch {
	case r.Err != nil:
		status = "FAIL: " + r.Err.Error()
	case !r.Pass():
		status = "FAIL: over envelope"
	}
	return fmt.Sprintf("%-18s %-12s %-7s mae=%.4f env=%.4f  %s",
		r.Model, r.Trial, r.Granular, r.MAE, r.Envelope, status)
}

// refKey identifies one cached reference curve.
type refKey struct {
	target string
	trial  string
	bytes  bool
}

// Runner drives models against cached reference simulations. The
// zero value is not usable; call NewRunner.
type Runner struct {
	refs    map[refKey]*mrc.Curve
	sizes   map[refKey][]uint64
	workers int
}

// NewRunner returns a Runner with an empty reference cache. workers
// bounds the parallel simulation fan-out (0 = default).
func NewRunner(workers int) *Runner {
	return &Runner{
		refs:    make(map[refKey]*mrc.Curve),
		sizes:   make(map[refKey][]uint64),
		workers: workers,
	}
}

// evalSizes returns the object-granularity evaluation sizes for a
// trial: Points sizes evenly covering (0, distinct objects].
func evalSizes(trial Trial) ([]uint64, error) {
	sum, err := trace.Summarize(trial.Trace.Reader())
	if err != nil {
		return nil, err
	}
	return mrc.EvenSizes(uint64(sum.DistinctObjects), trial.Points), nil
}

// byteSizes returns the byte-granularity evaluation sizes.
func byteSizes(trial Trial) ([]uint64, error) {
	sum, err := trace.Summarize(trial.Trace.Reader())
	if err != nil {
		return nil, err
	}
	return mrc.EvenSizes(sum.WSSBytes, trial.Points), nil
}

// Reference returns (building and caching on first use) the simulated
// ground-truth curve for one replacement-policy target on a trial,
// along with the evaluation sizes.
func (r *Runner) Reference(target string, trial Trial) (*mrc.Curve, []uint64, error) {
	key := refKey{target: target, trial: trial.Name}
	if c, ok := r.refs[key]; ok {
		return c, r.sizes[key], nil
	}
	sizes, err := evalSizes(trial)
	if err != nil {
		return nil, nil, err
	}
	var curve *mrc.Curve
	switch target {
	case "lru":
		curve, err = simulator.LRUMRC(trial.Trace, sizes, r.workers)
	case "klru":
		curve, err = simulator.KLRUMRC(trial.Trace, trial.K, sizes, trial.Seed, r.workers)
	case "lfu":
		curve, err = simulator.PriorityMRC(trial.Trace, nsp.LFU{}, sizes, r.workers)
	case "mru":
		curve, err = simulator.PriorityMRC(trial.Trace, nsp.MRU{}, sizes, r.workers)
	default:
		err = fmt.Errorf("difftest: no reference simulator for target %q", target)
	}
	if err != nil {
		return nil, nil, err
	}
	r.refs[key] = curve
	r.sizes[key] = sizes
	return curve, sizes, nil
}

// ByteReference returns the byte-capacity ground truth for a target.
func (r *Runner) ByteReference(target string, trial Trial) (*mrc.Curve, []uint64, error) {
	key := refKey{target: target, trial: trial.Name, bytes: true}
	if c, ok := r.refs[key]; ok {
		return c, r.sizes[key], nil
	}
	sizes, err := byteSizes(trial)
	if err != nil {
		return nil, nil, err
	}
	var curve *mrc.Curve
	switch target {
	case "lru":
		curve, err = simulator.MRC(trial.Trace, sizes, r.workers, func(capacity uint64) simulator.Cache {
			return simulator.NewLRU(simulator.ByteCapacity(capacity))
		})
	case "klru":
		curve, err = simulator.KLRUBytesMRC(trial.Trace, trial.K, sizes, trial.Seed, r.workers)
	default:
		err = fmt.Errorf("difftest: no byte reference simulator for target %q", target)
	}
	if err != nil {
		return nil, nil, err
	}
	r.refs[key] = curve
	r.sizes[key] = sizes
	return curve, sizes, nil
}

// BuildCurve constructs the named model with the harness options for
// it, replays the trial's trace, and returns the requested curve.
func BuildCurve(name string, trial Trial, bytes bool) (*mrc.Curve, error) {
	opts := ModelOptions(name, trial)
	if bytes {
		opts.Bytes = model.BytesOn
	}
	m, err := model.New(name, opts)
	if err != nil {
		return nil, fmt.Errorf("difftest: build %s: %w", name, err)
	}
	defer m.Close()
	if err := model.ProcessAll(m, trial.Trace.Reader()); err != nil {
		return nil, fmt.Errorf("difftest: feed %s: %w", name, err)
	}
	snap := m.Snapshot()
	if bytes {
		if snap.Byte == nil {
			return nil, fmt.Errorf("difftest: %s returned a nil byte curve with BytesOn", name)
		}
		return snap.Byte, nil
	}
	return snap.Object, nil
}

// CheckModel runs the differential comparison of one registered model
// on one trial at object granularity.
func (r *Runner) CheckModel(info model.Info, trial Trial) Result {
	res := Result{Model: info.Name, Trial: trial.Name, Granular: "objects", Envelope: EnvelopeFor(info.Name, trial.Name)}
	ref, sizes, err := r.Reference(info.Target, trial)
	if err != nil {
		res.Err = err
		return res
	}
	curve, err := BuildCurve(info.Name, trial, false)
	if err != nil {
		res.Err = err
		return res
	}
	if err := CheckCurve(curve); err != nil {
		res.Err = fmt.Errorf("invariant: %w", err)
		return res
	}
	res.MAE = mrc.MAE(ref, curve, sizes)
	return res
}

// CheckModelBytes runs the byte-granularity differential comparison;
// callers must ensure the model has CapBytes.
func (r *Runner) CheckModelBytes(info model.Info, trial Trial) Result {
	res := Result{Model: info.Name, Trial: trial.Name, Granular: "bytes", Envelope: ByteEnvelope(info.Name)}
	ref, sizes, err := r.ByteReference(info.Target, trial)
	if err != nil {
		res.Err = err
		return res
	}
	curve, err := BuildCurve(info.Name, trial, true)
	if err != nil {
		res.Err = err
		return res
	}
	if err := CheckCurve(curve); err != nil {
		res.Err = fmt.Errorf("invariant: %w", err)
		return res
	}
	res.MAE = mrc.MAE(ref, curve, sizes)
	return res
}

// RunAll checks every registered model against every trial, including
// byte-granularity checks on trials with Bytes set.
func (r *Runner) RunAll(trials []Trial) []Result {
	var out []Result
	for _, trial := range trials {
		for _, info := range model.All() {
			out = append(out, r.CheckModel(info, trial))
			if trial.Bytes && info.Caps.Has(model.CapBytes) && byteComparable(info.Target) {
				out = append(out, r.CheckModelBytes(info, trial))
			}
		}
	}
	return out
}

// byteComparable reports whether a byte-granularity reference
// simulator exists for the target.
func byteComparable(target string) bool { return target == "lru" || target == "klru" }
