package dlru

import (
	"bytes"
	"strings"
	"testing"

	"krr/internal/simulator"
	"krr/internal/telemetry"
	"krr/internal/trace"
	"krr/internal/workload"
)

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}, nil); err == nil {
		t.Fatal("missing budget must fail")
	}
	if _, err := New(Config{BudgetObjects: 10, Candidates: []int{0}}, nil); err == nil {
		t.Fatal("invalid candidate must fail")
	}
}

func TestDefaultsApplied(t *testing.T) {
	c, err := New(Config{BudgetObjects: 100}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.cfg.Candidates) != 6 || c.cfg.Window != 100_000 {
		t.Fatalf("defaults not applied: %+v", c.cfg)
	}
	if c.CurrentK() != 1 {
		t.Fatalf("initial K = %d", c.CurrentK())
	}
}

func TestControllerPrefersSmallKOnLoop(t *testing.T) {
	// A loop larger than the budget: LRU-like (large K) thrashes,
	// random-like (small K) retains a working fraction. The
	// controller must settle on a small K.
	const loopLen = 2000
	const budget = 1000
	ctl, err := New(Config{
		BudgetObjects: budget,
		Candidates:    []int{1, 4, 16, 32},
		Window:        20_000,
		SamplingRate:  0.5,
		Seed:          3,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := workload.NewLoop(loopLen, nil)
	if err := ctl.ProcessAll(trace.LimitReader(g, 100_000)); err != nil {
		t.Fatal(err)
	}
	if got := ctl.CurrentK(); got > 4 {
		t.Fatalf("controller chose K=%d on a loop, want small", got)
	}
	pred := ctl.Predictions()
	if pred[1] >= pred[32] {
		t.Fatalf("profilers disagree with loop physics: %v", pred)
	}
	if len(ctl.Decisions()) == 0 {
		t.Fatal("no decisions recorded")
	}
}

func TestControllerDrivesLiveCache(t *testing.T) {
	const budget = 500
	cache := simulator.NewKLRU(simulator.ObjectCapacity(budget), 32, true, 9)
	ctl, err := New(Config{
		BudgetObjects: budget,
		Candidates:    []int{1, 32},
		Window:        10_000,
		SamplingRate:  0.5,
		Seed:          5,
	}, cache)
	if err != nil {
		t.Fatal(err)
	}
	// New attaches and resets the cache to the first candidate.
	if cache.K() != 1 {
		t.Fatalf("initial live K = %d", cache.K())
	}
	// A Zipfian phase where large K (LRU-like) wins clearly:
	// strongly-skewed reuse benefits from strict recency ordering...
	// actually on a loop phase the controller must move to K=1; then
	// verify the switch reached the cache.
	g := workload.NewLoop(1000, nil)
	if err := ctl.ProcessAll(trace.LimitReader(g, 50_000)); err != nil {
		t.Fatal(err)
	}
	if cache.K() != ctl.CurrentK() {
		t.Fatalf("live cache K %d diverged from controller %d", cache.K(), ctl.CurrentK())
	}
	if ctl.CurrentK() != 1 {
		t.Fatalf("controller should pick K=1 on a loop, got %d", ctl.CurrentK())
	}
}

func TestHysteresisPreventsFlapping(t *testing.T) {
	ctl, err := New(Config{
		BudgetObjects:  100,
		Candidates:     []int{1, 2},
		Window:         1_000,
		SamplingRate:   1, // clamps to default — fine
		MinImprovement: 1, // impossible margin: never switch
		Seed:           7,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := workload.NewLoop(500, nil)
	if err := ctl.ProcessAll(trace.LimitReader(g, 20_000)); err != nil {
		t.Fatal(err)
	}
	for _, d := range ctl.Decisions() {
		if d.Switched {
			t.Fatal("switch despite impossible improvement margin")
		}
	}
	if ctl.CurrentK() != 1 {
		t.Fatal("K must stay at the initial candidate")
	}
}

func TestAdaptiveBeatsWorstFixedK(t *testing.T) {
	// End-to-end: on a loop workload the adaptive cache's realized
	// miss ratio must beat the worst fixed candidate by a margin.
	const budget = 800
	run := func(fixedK int, adaptive bool) float64 {
		cache := simulator.NewKLRU(simulator.ObjectCapacity(budget), fixedK, true, 11)
		g := workload.NewLoop(1600, nil)
		if !adaptive {
			st, err := simulator.Run(cache, trace.LimitReader(g, 80_000))
			if err != nil {
				t.Fatal(err)
			}
			return st.MissRatio()
		}
		ctl, err := New(Config{
			BudgetObjects: budget,
			Candidates:    []int{1, 8, 32},
			Window:        8_000,
			SamplingRate:  0.5,
			Seed:          13,
		}, cache)
		if err != nil {
			t.Fatal(err)
		}
		var hits, total int
		r := trace.LimitReader(g, 80_000)
		for {
			req, err := r.Next()
			if err != nil {
				break
			}
			total++
			if ctl.Process(req) {
				hits++
			}
		}
		return 1 - float64(hits)/float64(total)
	}
	adaptiveMiss := run(32, true)
	worstFixed := run(32, false)
	if adaptiveMiss >= worstFixed-0.02 {
		t.Fatalf("adaptive %v did not beat worst fixed K=32 %v", adaptiveMiss, worstFixed)
	}
}

func TestControllerMetrics(t *testing.T) {
	cache := simulator.NewKLRU(simulator.ObjectCapacity(64), 1, true, 1)
	ctl, err := New(Config{
		BudgetObjects: 64,
		Candidates:    []int{1, 8},
		Window:        2_000,
		SamplingRate:  1,
		Seed:          1,
	}, cache)
	if err != nil {
		t.Fatal(err)
	}
	set := telemetry.NewSet()
	ctl.MetricsInto(set, "dlru_")
	gen := workload.NewZipf(2, 500, 1.0, nil, 0)
	if err := ctl.ProcessAll(trace.LimitReader(gen, 10_000)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := set.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"dlru_current_k ", "dlru_budget_objects 64",
		"dlru_decisions_total 5", "dlru_last_decision_request 10000",
		"dlru_last_predicted_miss ", "dlru_switches_total ",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}
