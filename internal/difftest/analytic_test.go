package difftest

import (
	"testing"

	"krr/internal/model"
)

// analyticModels are the closed-form tier's registry names.
var analyticModels = []string{"che", "fagin"}

// TestDifferentialAnalytic is the check.sh cheform-fast stage: just
// the closed-form tier against the deterministic trials, without
// paying for the full 14-model sweep. The full sweep
// (TestDifferentialEnvelopes) covers the same ground plus everything
// else; this test exists so the analytic tier has a sub-second gate
// of its own.
func TestDifferentialAnalytic(t *testing.T) {
	r := NewRunner(0)
	for _, trial := range FastTrials() {
		for _, name := range analyticModels {
			info, ok := model.Lookup(name)
			if !ok {
				t.Fatalf("model %q not registered", name)
			}
			res := r.CheckModel(info, trial)
			t.Log(res.String())
			if !res.Pass() {
				t.Errorf("%s on %s: MAE %.4f over envelope %.4f (err: %v)",
					res.Model, res.Trial, res.MAE, res.Envelope, res.Err)
			}
		}
	}
}

// TestAnalyticCurveInvariants holds the closed-form curves to the
// structural invariants across the configuration surface the registry
// exposes: sampling rates and fallback alphas, on every fast trial.
func TestAnalyticCurveInvariants(t *testing.T) {
	configs := []model.Options{
		{},
		{SamplingRate: 0.1},
		{AnalyticAlpha: 0.4},
		{AnalyticAlpha: 2.0},
		{SamplingRate: 0.25, AnalyticAlpha: 1.2},
	}
	for _, trial := range FastTrials() {
		for _, name := range analyticModels {
			for _, opts := range configs {
				m, err := model.New(name, opts)
				if err != nil {
					t.Fatal(err)
				}
				if err := model.ProcessAll(m, trial.Trace.Reader()); err != nil {
					t.Fatal(err)
				}
				if err := CheckCurve(m.Snapshot().Object); err != nil {
					t.Errorf("%s on %s with %+v: %v", name, trial.Name, opts, err)
				}
			}
		}
	}
}

// TestAnalyticEnvelopeDeclared pins that the per-trial envelope table
// actually resolves for the fast trials and stays below the loose
// default — a declared bound per named trial is the whole point of
// the analytic tier's difftest contract.
func TestAnalyticEnvelopeDeclared(t *testing.T) {
	for _, trial := range FastTrials() {
		for _, name := range analyticModels {
			e := EnvelopeFor(name, trial.Name)
			if e >= analyticDefaultEnvelope {
				t.Errorf("%s on %s: envelope %.3f not declared tighter than the default %.3f",
					name, trial.Name, e, analyticDefaultEnvelope)
			}
		}
	}
	if e := EnvelopeFor("che", "rand-12345"); e != analyticDefaultEnvelope {
		t.Errorf("undeclared trial resolved to %.3f, want default %.3f", e, analyticDefaultEnvelope)
	}
	if e := EnvelopeFor("olken", "zipf"); e != Envelope("olken") {
		t.Errorf("stateful model envelope changed by trial: %.3f != %.3f", e, Envelope("olken"))
	}
}
