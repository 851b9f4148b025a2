package experiments

import (
	"fmt"
	"time"

	"krr/internal/core"
	"krr/internal/histogram"
	"krr/internal/model"
	"krr/internal/mrc"
	"krr/internal/sampling"
	"krr/internal/simulator"
	"krr/internal/trace"
	"krr/internal/workload"
)

// materialize builds an in-memory trace for a preset under the given
// options.
func materialize(p workload.Preset, opt Options, variable bool) (*trace.Trace, trace.Summary, error) {
	n := int(float64(p.DefaultRequests) * opt.ReqFraction)
	if opt.MaxRequests > 0 && n > opt.MaxRequests {
		n = opt.MaxRequests
	}
	if n < 1000 {
		n = 1000
	}
	r := p.New(opt.Scale, opt.Seed, variable)
	tr, err := trace.Collect(r, n)
	if err != nil {
		return nil, trace.Summary{}, err
	}
	sum, err := trace.Summarize(tr.Reader())
	if err != nil {
		return nil, trace.Summary{}, err
	}
	return tr, sum, nil
}

// mustPreset resolves a preset or fails loudly — experiment IDs are
// static, so a missing preset is a programming error.
func mustPreset(name string) workload.Preset {
	p, ok := workload.ByName(name)
	if !ok {
		panic("experiments: unknown preset " + name)
	}
	return p
}

// evalSizes picks the evaluation cache sizes for a trace: evenly
// distributed over the working set (§5.3).
func evalSizes(distinct int, n int) []uint64 {
	return mrc.EvenSizes(uint64(distinct), n)
}

// rateFor picks the spatial sampling rate with the paper's 8K-object
// floor.
func rateFor(distinct int) float64 { return sampling.RateFor(distinct) }

// modelCurve replays the trace through a registered model and returns
// its object curve and wall time. This is the standard path for
// experiments; stackRun below serves the ones that set K′ directly or
// read the stack itself.
func modelCurve(tr *trace.Trace, name string, opts model.Options) (*mrc.Curve, time.Duration, error) {
	m, err := model.New(name, opts)
	if err != nil {
		return nil, 0, err
	}
	defer m.Close()
	start := time.Now()
	if err := model.ProcessAll(m, tr.Reader()); err != nil {
		return nil, 0, err
	}
	curve := m.Snapshot().Object
	return curve, time.Since(start), nil
}

// krrByteCurve replays the trace through the krr model (opts selects
// the byte mode) and returns its byte curve and the replay's wall time.
func krrByteCurve(tr *trace.Trace, opts model.Options) (*mrc.Curve, time.Duration, error) {
	m, err := model.New("krr", opts)
	if err != nil {
		return nil, 0, err
	}
	defer m.Close()
	start := time.Now()
	if err := model.ProcessAll(m, tr.Reader()); err != nil {
		return nil, 0, err
	}
	elapsed := time.Since(start)
	return m.Snapshot().Byte, elapsed, nil
}

// stackRun replays tr through a bare backward KRR stack of exponent
// kPrime behind a spatial filter at rate (0 or 1: none), the way the
// krr model drives it, for the experiments that set K′ directly (the
// K′ ablation) or read the stack itself (space accounting, swap
// counts). It returns the stack, the object curve and the replay's
// wall time.
func stackRun(tr *trace.Trace, kPrime float64, seed uint64, rate float64) (*core.Stack, *mrc.Curve, time.Duration) {
	st := core.NewStack(kPrime, seed)
	hist := histogram.NewDense(1024)
	var filter *sampling.Filter
	scale := 1.0
	if rate > 0 && rate < 1 {
		filter = sampling.NewRate(rate)
		scale = 1 / filter.Rate()
	}
	start := time.Now()
	for _, req := range tr.Reqs {
		if filter != nil && !filter.Sampled(req.Key) {
			continue
		}
		if req.Op == trace.OpDelete {
			st.Delete(req.Key)
			continue
		}
		if res := st.Reference(req.Key, req.Size); res.Cold {
			hist.AddCold()
		} else {
			hist.Add(res.Distance)
		}
	}
	elapsed := time.Since(start)
	return st, mrc.FromHistogram(hist, scale), elapsed
}

// simKLRU returns the ground-truth K-LRU curve via per-size
// simulation.
func simKLRU(tr *trace.Trace, k int, sizes []uint64, seed uint64, workers int) (*mrc.Curve, error) {
	return simulator.KLRUMRC(tr, k, sizes, seed, workers)
}

// simKLRUBytes returns the byte-capacity ground truth.
func simKLRUBytes(tr *trace.Trace, k int, sizes []uint64, seed uint64, workers int) (*mrc.Curve, error) {
	return simulator.KLRUBytesMRC(tr, k, sizes, seed, workers)
}

// simKLRUVariant simulates K-LRU with the chosen eviction-sampling
// variant (with or without placing back, Propositions 1/2).
func simKLRUVariant(tr *trace.Trace, k int, sizes []uint64, withReplacement bool, opt Options) (*mrc.Curve, error) {
	return simulator.MRC(tr, sizes, opt.Workers, func(capacity uint64) simulator.Cache {
		return simulator.NewKLRU(simulator.ObjectCapacity(int(capacity)), k, withReplacement, opt.Seed+capacity)
	})
}

// curveSeries samples a curve at the given sizes into a Series.
func curveSeries(name string, c *mrc.Curve, at []uint64) Series {
	s := Series{Name: name, X: make([]float64, len(at)), Y: make([]float64, len(at))}
	for i, size := range at {
		s.X[i] = float64(size)
		s.Y[i] = c.Eval(size)
	}
	return s
}

// f4 formats a float with 4 significant decimals for table cells.
func f4(v float64) string { return fmt.Sprintf("%.5f", v) }

// f2 formats a float with 2 decimals.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// dur formats a duration for table cells.
func dur(d time.Duration) string { return d.Round(time.Microsecond).String() }
