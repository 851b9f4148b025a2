// Package dlru implements a DLRU-style controller (Wang, Yang & Wang,
// MEMSYS '20 — the paper's motivating application, §1): because
// random sampling-based eviction has no rigid ordering structure, the
// sampling size K can be reconfigured online, and KRR makes the
// decision cheap — one spatially-sampled shadow profiler per candidate
// K predicts the miss ratio the production cache *would* have at its
// current budget, and the controller switches the live cache to the
// argmin.
package dlru

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sync/atomic"

	"krr/internal/model"
	"krr/internal/telemetry"
	"krr/internal/trace"
)

// Tunable is the control surface of a live cache whose eviction sampling
// size can change online (e.g. *simulator.KLRU, or a Redis CONFIG SET
// maxmemory-samples adapter).
type Tunable interface {
	Access(req trace.Request) bool
	SetSamplingSize(k int)
}

// Decision records one controller evaluation.
type Decision struct {
	// AtRequest is the request count when the decision was taken.
	AtRequest uint64
	// BudgetObjects is the cache budget the candidates were compared
	// at.
	BudgetObjects uint64
	// ChosenK is the selected sampling size.
	ChosenK int
	// Predicted maps each candidate K to its predicted miss ratio.
	Predicted map[int]float64
	// Switched reports whether the live cache was reconfigured.
	Switched bool
}

// Config assembles a Controller.
type Config struct {
	// BudgetObjects is the live cache's capacity in objects — the
	// point on each candidate's MRC that is compared.
	BudgetObjects uint64
	// Candidates are the sampling sizes considered (default
	// 1,2,4,8,16,32).
	Candidates []int
	// Window is the number of requests between decisions (default
	// 100k).
	Window int
	// SamplingRate is the shadow profilers' spatial sampling rate
	// (default 0.01).
	SamplingRate float64
	// MinImprovement is the miss-ratio margin a new K must win by
	// before the controller switches (hysteresis, default 0.005).
	MinImprovement float64
	// Seed fixes profiler randomness.
	Seed uint64
}

func (c *Config) fill() error {
	if c.BudgetObjects == 0 {
		return errors.New("dlru: BudgetObjects required")
	}
	if len(c.Candidates) == 0 {
		c.Candidates = []int{1, 2, 4, 8, 16, 32}
	}
	for _, k := range c.Candidates {
		if k < 1 {
			return fmt.Errorf("dlru: candidate K %d invalid", k)
		}
	}
	if c.Window <= 0 {
		c.Window = 100_000
	}
	if c.SamplingRate <= 0 || c.SamplingRate > 1 {
		c.SamplingRate = 0.01
	}
	if c.MinImprovement < 0 {
		c.MinImprovement = 0.005
	}
	return nil
}

// Controller shadows a request stream with one KRR profiler per
// candidate K and periodically reconfigures the attached cache.
//
// Process and the decision log are single-caller, like every serial
// model in this repository. The controller *state* the outside world
// cares about — current K, the last decision's position and outcome —
// lives in atomics and is exported through MetricsInto, so a /metrics
// scrape reads it race-free while the stream runs.
type Controller struct {
	cfg       Config
	cache     Tunable // may be nil (advisory mode)
	profilers map[int]model.Model
	count     uint64
	decisions []Decision

	// Cross-goroutine state: see the struct comment.
	currentK      atomic.Int64
	lastDecision  atomic.Uint64 // request count of the last decision
	lastPredicted atomic.Uint64 // Float64bits of the chosen K's miss
	decided       telemetry.Counter
	switched      telemetry.Counter
}

// New builds a controller driving cache (nil for advisory-only use).
// The live cache starts at the first candidate.
func New(cfg Config, cache Tunable) (*Controller, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	ctl := &Controller{cfg: cfg, cache: cache, profilers: make(map[int]model.Model)}
	for i, k := range cfg.Candidates {
		p, err := model.New("krr", model.Options{K: k, Seed: cfg.Seed + uint64(i)*131, SamplingRate: cfg.SamplingRate})
		if err != nil {
			return nil, err
		}
		ctl.profilers[k] = p
	}
	ctl.currentK.Store(int64(cfg.Candidates[0]))
	if cache != nil {
		cache.SetSamplingSize(cfg.Candidates[0])
	}
	return ctl, nil
}

// CurrentK returns the sampling size currently in force (safe from any
// goroutine).
func (c *Controller) CurrentK() int { return int(c.currentK.Load()) }

// BudgetObjects returns the cache budget decisions are evaluated at.
func (c *Controller) BudgetObjects() uint64 { return c.cfg.BudgetObjects }

// Decisions returns the decision log.
func (c *Controller) Decisions() []Decision { return c.decisions }

// Predictions returns each candidate's current predicted miss ratio
// at the configured budget.
func (c *Controller) Predictions() map[int]float64 {
	out := make(map[int]float64, len(c.profilers))
	for k, p := range c.profilers {
		out[k] = p.Snapshot().Object.Eval(c.cfg.BudgetObjects)
	}
	return out
}

// MetricsInto registers the controller's observable state under
// prefix. The budget is fixed at construction and every other value is
// an atomic, so a scrape is safe mid-stream.
func (c *Controller) MetricsInto(set *telemetry.Set, prefix string) {
	set.GaugeFunc(prefix+"current_k", "sampling size currently in force", func() float64 {
		return float64(c.currentK.Load())
	})
	set.GaugeFunc(prefix+"budget_objects", "cache budget decisions are evaluated at", func() float64 {
		return float64(c.cfg.BudgetObjects)
	})
	set.GaugeFunc(prefix+"last_decision_request", "request count of the last decision", func() float64 {
		return float64(c.lastDecision.Load())
	})
	set.GaugeFunc(prefix+"last_predicted_miss", "chosen K's predicted miss at the last decision", func() float64 {
		return math.Float64frombits(c.lastPredicted.Load())
	})
	set.CounterFunc(prefix+"decisions_total", "window decisions taken", c.decided.Load)
	set.CounterFunc(prefix+"switches_total", "decisions that reconfigured the cache", c.switched.Load)
}

// Process forwards one request to the live cache (if any) and the
// shadow profilers, reconfiguring at window boundaries. It returns
// the live cache's hit result (false in advisory mode).
func (c *Controller) Process(req trace.Request) bool {
	hit := false
	if c.cache != nil {
		hit = c.cache.Access(req)
	}
	for _, p := range c.profilers {
		// Serial shadow models never fail a request.
		_ = p.Process(req)
	}
	c.count++
	if c.count%uint64(c.cfg.Window) == 0 {
		c.decide()
	}
	return hit
}

// ProcessAll drains a reader.
func (c *Controller) ProcessAll(r trace.Reader) error {
	for {
		req, err := r.Next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		c.Process(req)
	}
}

func (c *Controller) decide() {
	pred := c.Predictions()
	current := int(c.currentK.Load())
	bestK, bestMiss := current, pred[current]
	for _, k := range c.cfg.Candidates {
		if pred[k] < bestMiss {
			bestK, bestMiss = k, pred[k]
		}
	}
	switched := false
	if bestK != current && pred[current]-bestMiss > c.cfg.MinImprovement {
		current = bestK
		c.currentK.Store(int64(bestK))
		if c.cache != nil {
			c.cache.SetSamplingSize(bestK)
		}
		switched = true
		c.switched.Inc()
	}
	c.decided.Inc()
	c.lastDecision.Store(c.count)
	c.lastPredicted.Store(math.Float64bits(pred[current]))
	c.decisions = append(c.decisions, Decision{
		AtRequest:     c.count,
		BudgetObjects: c.cfg.BudgetObjects,
		ChosenK:       current,
		Predicted:     pred,
		Switched:      switched,
	})
}
