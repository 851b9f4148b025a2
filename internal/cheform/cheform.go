// Package cheform is the instant-estimate model tier: closed-form
// analytic LRU miss-ratio curves driven by an online popularity fit
// instead of per-request distance bookkeeping. Where every other
// technique in this repository tracks some image of the reuse
// behavior (a stack, a reuse-time histogram, a counter sketch),
// cheform keeps only a constant-size summary of the request
// popularity distribution — a Space-Saving top-k sketch plus a
// HyperLogLog distinct-key estimate — and computes the whole curve
// from it in closed form at read time. Memory is O(1) in both trace
// length and working-set size; the curve costs a numeric solve per
// evaluated cache size and nothing per request beyond the sketch
// update.
//
// # The approximations
//
// Under the independent reference model with per-key reference
// probabilities p_i, Che's approximation (Che, Tung & Wang, JSAC '02)
// says an LRU cache of capacity C behaves as if every key were
// evicted exactly T(C) time units after its last reference, where the
// characteristic time T solves
//
//	C = Σ_i (1 − e^(−p_i·T))
//
// and the steady-state miss ratio is
//
//	m(C) = Σ_i p_i · e^(−p_i·T(C)).
//
// The Fagin variant (Fagin '77) is the discrete-window form of the
// same idea: P(key i missing from a window of τ references) is
// (1−p_i)^τ instead of e^(−p_i·T). Both are exact in limiting regimes
// and remarkably accurate for skewed IRM-like traffic (Berthet '17
// surveys the family under power-law popularity); neither sees
// sequencing, so cyclic/scan (Type A) traces are out of model — the
// difftest envelopes for this tier are correspondingly looser there.
//
// # The popularity fit
//
// The probabilities p_i are fitted online as a hybrid: an exact
// empirical head from the Space-Saving sketch's guaranteed counts
// (count − error is a lower bound on a tracked key's true count), and
// a power-law tail i^(−α) over the remaining ranks up to the
// HyperLogLog distinct estimate, carrying the mass the head could not
// attribute. α comes from analysis.ZipfFit over the guaranteed head
// counts; when the fit is degenerate (its documented 0 sentinel) the
// fitter falls back to the configured default exponent.
//
// # Finite-trace correction
//
// The closed forms model an infinite stationary stream; a finite
// trace of R requests additionally pays one compulsory miss per
// distinct key. The stationary model credits key i's first access
// with only e^(−p_i·T) miss probability, so the shortfall is
// Σ_i (1 − e^(−p_i·T))/R — which by the characteristic equation is
// exactly C/R:
//
//	m_trace(C) = m(C) + C/R,
//
// clamped into [0, 1] and to monotone non-increasing. At C = N this
// yields N/R, the exact cold-miss ratio.
package cheform

import (
	"fmt"

	"krr/internal/analysis"
	"krr/internal/hashing"
	"krr/internal/hll"
	"krr/internal/mrc"
	"krr/internal/trace"
)

// Variant selects the closed form.
type Variant uint8

const (
	// Che is the continuous-time characteristic-time approximation:
	// P(absent) = e^(−p·T).
	Che Variant = iota
	// Fagin is the discrete reference-window form: P(absent) = (1−p)^τ.
	Fagin
)

// String names the variant.
func (v Variant) String() string {
	if v == Fagin {
		return "fagin"
	}
	return "che"
}

const (
	// DefaultHeads is the default Space-Saving counter budget: enough
	// to resolve the informative head analysis.ZipfFit regresses over
	// (ranks up to 1000) while keeping the sketch tens of KB.
	DefaultHeads = 1024
	// DefaultAlpha is the fallback Zipf exponent used when the online
	// rank-frequency fit returns its degenerate-head 0 sentinel. It is
	// deliberately near-uniform: the fallback only fires when the
	// sketch head shows no detectable skew, so the default models what
	// was observed — effectively flat popularity. Configure a larger
	// exponent when the stream is known to be skewed but sampled too
	// thinly for the fit to see it.
	DefaultAlpha = 0.05
	// MaxAlpha bounds both configured and fitted exponents; beyond it
	// the tail mass degenerates onto the first tail rank anyway.
	MaxAlpha = 8.0
	// DefaultPoints is the default evaluation-grid density of the
	// emitted curve (on top of a power-of-two ladder for the head).
	DefaultPoints = 96
)

// Config parameterizes a Fitter. The zero value selects the Che
// variant with all defaults.
type Config struct {
	// Variant selects Che or Fagin.
	Variant Variant
	// Heads is the Space-Saving counter budget; 0 means DefaultHeads.
	Heads int
	// DefaultAlpha is the fallback Zipf exponent for degenerate fits;
	// 0 means DefaultAlpha, otherwise it must be in (0, MaxAlpha].
	DefaultAlpha float64
	// Points is the evaluation-grid density; 0 means DefaultPoints.
	Points int
}

// hllPrecision gives the distinct-key sketch 4096 registers (~4 KB), a
// relative standard error of 1.04/√4096 ≈ 1.6% — ample for a distinct
// estimate that only positions the power-law tail.
const hllPrecision = 12

// Fitter consumes a request stream and fits the popularity model the
// closed forms evaluate. It is not safe for concurrent use.
type Fitter struct {
	cfg      Config
	top      *topk
	card     *hll.Sketch
	requests uint64
}

// New builds a Fitter. Zero Config fields take package defaults.
func New(cfg Config) (*Fitter, error) {
	if cfg.Variant > Fagin {
		return nil, fmt.Errorf("cheform: unknown variant %d", cfg.Variant)
	}
	if cfg.Heads == 0 {
		cfg.Heads = DefaultHeads
	}
	if cfg.Heads < 8 {
		return nil, fmt.Errorf("cheform: heads = %d, must be >= 8", cfg.Heads)
	}
	if cfg.DefaultAlpha == 0 {
		cfg.DefaultAlpha = DefaultAlpha
	}
	if cfg.DefaultAlpha < 0 || cfg.DefaultAlpha > MaxAlpha {
		return nil, fmt.Errorf("cheform: default alpha %v out of (0, %v]", cfg.DefaultAlpha, MaxAlpha)
	}
	if cfg.Points == 0 {
		cfg.Points = DefaultPoints
	}
	if cfg.Points < 2 {
		return nil, fmt.Errorf("cheform: points = %d, must be >= 2", cfg.Points)
	}
	return &Fitter{cfg: cfg, top: newTopK(cfg.Heads), card: hll.New(hllPrecision)}, nil
}

// Process feeds one request into the popularity sketches. Deletes are
// ignored: the closed forms model the popularity distribution of the
// reference stream, which a delete does not change.
func (f *Fitter) Process(req trace.Request) {
	if req.Op == trace.OpDelete {
		return
	}
	f.requests++
	f.top.Observe(req.Key)
	f.card.Add(hashing.Mix64(req.Key))
}

// Requests returns the number of non-delete requests observed.
func (f *Fitter) Requests() uint64 { return f.requests }

// HeadRun is a run of consecutive popularity ranks sharing one
// guaranteed count.
type HeadRun struct {
	// Count is the Space-Saving guaranteed count (count − error).
	Count uint64
	// Ranks is the number of head ranks carrying Count.
	Ranks int
}

// Fit is the fitted popularity model: everything the closed forms
// need, detached from the live sketches.
type Fit struct {
	// Requests is the non-delete stream length the fit summarizes.
	Requests uint64
	// Distinct is the estimated number of distinct keys (≥ the head
	// rank count).
	Distinct float64
	// Alpha is the tail's power-law exponent.
	Alpha float64
	// Fallback reports that Alpha is the configured default because
	// analysis.ZipfFit returned its degenerate-head sentinel.
	Fallback bool
	// Head is the empirical head: guaranteed counts in descending
	// order, run-length encoded.
	Head []HeadRun
}

// Fit summarizes the sketches into a popularity model. It reads the
// sketch state without mutating it, so Fit (and Curve) may be called
// mid-stream and again at end of stream; the same state always yields
// the identical Fit.
func (f *Fitter) Fit() Fit {
	fit := Fit{Requests: f.requests, Alpha: f.cfg.DefaultAlpha, Fallback: true}
	if f.requests == 0 {
		return fit
	}
	counts := f.top.Guaranteed()
	if a := analysis.ZipfFit(counts); a > 0 {
		fit.Alpha = a
		fit.Fallback = false
		if fit.Alpha > MaxAlpha {
			fit.Alpha = MaxAlpha
		}
	}
	// Counters whose guaranteed count is 1 carry no evidence beyond
	// "this key exists" — under churn every tracked key bottoms out at
	// count − err = 1 — so they are left to the tail model: their
	// ranks and mass flow back into the power-law remainder instead of
	// pinning junk per-key probabilities of 1/R.
	for i := 0; i < len(counts) && counts[i] > 1; {
		j := i
		for j < len(counts) && counts[j] == counts[i] {
			j++
		}
		fit.Head = append(fit.Head, HeadRun{Count: counts[i], Ranks: j - i})
		i = j
	}
	est := f.card.Estimate()
	if est < float64(len(counts)) {
		est = float64(len(counts))
	}
	if est < 1 {
		est = 1
	}
	fit.Distinct = est
	return fit
}

// Curve fits the popularity model and evaluates the closed form into
// a miss-ratio curve. scale rescales cache sizes (pass 1/R when the
// fitter saw a spatially sampled stream at rate R). Non-destructive:
// the fitter may keep streaming afterwards.
func (f *Fitter) Curve(scale float64) *mrc.Curve {
	return buildCurve(f.Fit(), f.cfg, scale)
}

// MemoryOverheadBytes reports the resident sketch metadata: the
// Space-Saving heap and index plus the HyperLogLog registers. This is
// the whole model state — the §5.6 accounting that makes this tier
// the leftmost point of the accuracy-vs-cost frontier.
func (f *Fitter) MemoryOverheadBytes() uint64 {
	return f.top.memBytes() + f.card.MemBytes()
}
