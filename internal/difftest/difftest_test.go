package difftest

import (
	"fmt"
	"testing"

	"krr/internal/model"
	"krr/internal/mrc"
	"krr/internal/trace"
)

// failPredicate rebuilds the whole differential check for one model
// on a candidate trace, for the shrinker: true when the model still
// violates its envelope or an invariant. A fresh Runner per call
// keeps the reference cache from serving curves of a different
// candidate.
func failPredicate(info model.Info, trial Trial, bytes bool) func(*trace.Trace) bool {
	return func(tr *trace.Trace) bool {
		cand := trial
		cand.Trace = tr
		r := NewRunner(0)
		var res Result
		if bytes {
			res = r.CheckModelBytes(info, cand)
		} else {
			res = r.CheckModel(info, cand)
		}
		return !res.Pass()
	}
}

// reportFailure shrinks the failing trace, writes it to the corpus,
// and fails the test with the replay path.
func reportFailure(t *testing.T, info model.Info, trial Trial, res Result, bytes bool) {
	t.Helper()
	path, err := WriteCorpus(CorpusDir, res.Model+"-"+res.Trial+"-"+res.Granular,
		trial.Trace, failPredicate(info, trial, bytes))
	if err != nil {
		t.Errorf("%s (corpus write failed: %v)", res, err)
		return
	}
	t.Errorf("%s (shrunk repro: %s)", res, path)
}

// TestDifferentialEnvelopes is the heart of the harness: every
// registered model, on every fast trial, must stay within its
// declared MAE envelope of the exact simulation and satisfy the curve
// invariants. Failures are shrunk and persisted under corpus/.
func TestDifferentialEnvelopes(t *testing.T) {
	runner := NewRunner(0)
	trials := FastTrials()
	for _, trial := range trials {
		trial := trial
		for _, info := range model.All() {
			info := info
			t.Run(info.Name+"/"+trial.Name, func(t *testing.T) {
				res := runner.CheckModel(info, trial)
				t.Logf("%s", res)
				if !res.Pass() {
					reportFailure(t, info, trial, res, false)
				}
				if trial.Bytes && info.Caps.Has(model.CapBytes) && byteComparable(info.Target) {
					bres := runner.CheckModelBytes(info, trial)
					t.Logf("%s", bres)
					if !bres.Pass() {
						reportFailure(t, info, trial, bres, true)
					}
				}
			})
		}
	}
}

// TestDifferentialBucketRatios sweeps the krr-bucket model's bucket
// growth ratio across its practical range and holds each point to the
// ratio-dependent declared envelope — the accuracy side of the
// bucketization accuracy/cost tradeoff, pinned as a function rather
// than at the default alone.
func TestDifferentialBucketRatios(t *testing.T) {
	runner := NewRunner(0)
	for _, trial := range FastTrials() {
		trial := trial
		for _, ratio := range []float64{1.25, 1.5, 2} {
			ratio := ratio
			t.Run(fmt.Sprintf("%s/ratio=%v", trial.Name, ratio), func(t *testing.T) {
				ref, sizes, err := runner.Reference("klru", trial)
				if err != nil {
					t.Fatal(err)
				}
				m, err := model.New("krr-bucket", model.Options{
					K: trial.K, Seed: trial.Seed, BucketRatio: ratio,
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := model.ProcessAll(m, trial.Trace.Reader()); err != nil {
					t.Fatal(err)
				}
				curve := m.Snapshot().Object
				if err := CheckCurve(curve); err != nil {
					t.Fatalf("invariant: %v", err)
				}
				mae := mrc.MAE(ref, curve, sizes)
				env := BucketEnvelope(ratio)
				t.Logf("ratio %v: MAE = %.4f (envelope %.4f)", ratio, mae, env)
				if mae > env {
					t.Errorf("krr-bucket ratio %v on %s: MAE %.4f > envelope %.4f",
						ratio, trial.Name, mae, env)
				}
			})
		}
	}
}

// TestDifferentialCoversRegistry pins the harness to the registry: a
// newly registered model with no reference simulator for its target
// must fail loudly here instead of silently skipping differential
// coverage.
func TestDifferentialCoversRegistry(t *testing.T) {
	runner := NewRunner(0)
	trial := FastTrials()[0]
	for _, info := range model.All() {
		if _, _, err := runner.Reference(info.Target, trial); err != nil {
			t.Errorf("model %s: no ground-truth simulator for target %q: %v",
				info.Name, info.Target, err)
		}
	}
}

// TestCorpusRegressions replays every shrunk failing trace ever
// written to corpus/ through the full differential check, so fixed
// bugs stay fixed.
func TestCorpusRegressions(t *testing.T) {
	corpus, err := LoadCorpus(CorpusDir)
	if err != nil {
		t.Fatal(err)
	}
	for name, tr := range corpus {
		name, tr := name, tr
		t.Run(name, func(t *testing.T) {
			trial := Trial{Name: "corpus-" + name, Trace: tr, K: 5, Seed: 1, Points: DefaultPoints}
			runner := NewRunner(0)
			for _, res := range runner.RunAll([]Trial{trial}) {
				if !res.Pass() {
					t.Errorf("%s", res)
				}
			}
		})
	}
}

// TestShrink checks the delta-debugging minimizer on a synthetic
// predicate: failure requires two specific keys to co-occur, and the
// shrunk trace must contain little else.
func TestShrink(t *testing.T) {
	tr := &trace.Trace{}
	for i := 0; i < 1000; i++ {
		tr.Append(trace.Request{Key: uint64(i) + 100})
	}
	tr.Reqs[137].Key = 7
	tr.Reqs[803].Key = 9
	fails := func(c *trace.Trace) bool {
		has7, has9 := false, false
		for _, r := range c.Reqs {
			if r.Key == 7 {
				has7 = true
			}
			if r.Key == 9 {
				has9 = true
			}
		}
		return has7 && has9
	}
	small := Shrink(tr, fails)
	if !fails(small) {
		t.Fatal("shrunk trace no longer fails")
	}
	if small.Len() > 4 {
		t.Fatalf("shrunk to %d requests, want <= 4", small.Len())
	}
}

// TestCheckCurveRejects covers the invariant checker itself.
func TestCheckCurveRejects(t *testing.T) {
	bad := map[string]*mrc.Curve{
		"nil":            nil,
		"empty":          {},
		"length":         {Sizes: []uint64{1, 2}, Miss: []float64{0.5}},
		"not-increasing": {Sizes: []uint64{2, 2}, Miss: []float64{0.5, 0.4}},
		"out-of-range":   {Sizes: []uint64{1}, Miss: []float64{1.5}},
		"non-monotone":   {Sizes: []uint64{1, 2}, Miss: []float64{0.3, 0.6}},
	}
	for name, c := range bad {
		if err := CheckCurve(c); err == nil {
			t.Errorf("%s: CheckCurve accepted an invalid curve", name)
		}
	}
	good := &mrc.Curve{Sizes: []uint64{0, 1, 5}, Miss: []float64{1, 0.5, 0.5}}
	if err := CheckCurve(good); err != nil {
		t.Errorf("valid curve rejected: %v", err)
	}
}
