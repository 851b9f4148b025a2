package core_test

import (
	"testing"

	"krr/internal/core"
	"krr/internal/histogram"
	"krr/internal/model"
	"krr/internal/mrc"
	"krr/internal/trace"
	"krr/internal/workload"
)

// The filter, counters, histograms and options around the core stacks
// belong to the krr and krr-bucket models; these tests hold that shell
// to the contracts it took over from the core wrappers it replaced.

// sameCurve reports bit-identical curves.
func sameCurve(a, b *mrc.Curve) bool {
	if len(a.Sizes) != len(b.Sizes) {
		return false
	}
	for i := range a.Sizes {
		if a.Sizes[i] != b.Sizes[i] || a.Miss[i] != b.Miss[i] {
			return false
		}
	}
	return true
}

func TestSpatialSamplingAccuracy(t *testing.T) {
	// KRR under spatial sampling must track unsampled KRR (§5.3).
	// Mild skew: with a strongly Zipfian trace the handful of hottest
	// keys carry so much mass that their random inclusion dominates
	// the sampling variance (the paper's workloads have millions of
	// objects, where this averages out).
	g := workload.NewZipf(9, 60000, 0.6, nil, 0)
	tr, _ := trace.Collect(g, 400000)

	full := replayed(t, tr, model.Options{K: 8, Seed: 3})
	sampled := replayed(t, tr, model.Options{K: 8, Seed: 3, SamplingRate: 0.2})
	sizes := mrc.EvenSizes(60000, 20)
	if mae := mrc.MAE(full.Snapshot().Object, sampled.Snapshot().Object, sizes); mae > 0.03 {
		t.Fatalf("sampled vs full MAE %v", mae)
	}
	if st := sampled.Stats(); st.Sampled == 0 || st.Sampled >= st.Seen {
		t.Fatalf("filter inactive: %d of %d", st.Sampled, st.Seen)
	}
}

// TestConfigValidation: out-of-range options fail, and K = 0 means
// model.DefaultK.
func TestConfigValidation(t *testing.T) {
	for _, bad := range []model.Options{
		{K: -1},
		{K: 1, SamplingRate: -0.5},
		{K: 1, SamplingRate: 2},
	} {
		if _, err := model.New("krr", bad); err == nil {
			t.Fatalf("options %+v must fail", bad)
		}
	}
	tr, _ := trace.Collect(workload.NewZipf(1, 1000, 1.0, nil, 0), 5000)
	zero := replayed(t, tr, model.Options{Seed: 2}).Snapshot().Object
	def := replayed(t, tr, model.Options{K: model.DefaultK, Seed: 2}).Snapshot().Object
	if !sameCurve(zero, def) {
		t.Fatal("K = 0 must model DefaultK")
	}
}

// TestByteCurveNilWhenOff: a snapshot of a model built without a byte
// mode carries a nil byte curve, serial or sharded, and one with a byte
// mode carries a curve.
func TestByteCurveNilWhenOff(t *testing.T) {
	for _, w := range []int{0, 2} {
		m := newKRR(t, model.Options{K: 2, Seed: 1, Workers: w})
		m.Process(trace.Request{Key: 1, Size: 1})
		if c := m.Snapshot().Byte; c != nil {
			t.Fatalf("Workers %d: byte curve with bytes off = %v, want nil", w, c)
		}
		on := newKRR(t, model.Options{K: 2, Seed: 1, Workers: w, Bytes: model.BytesSizeArray})
		on.Process(trace.Request{Key: 1, Size: 1})
		if on.Snapshot().Byte == nil {
			t.Fatalf("Workers %d: byte curve nil with a byte mode", w)
		}
	}
}

func TestProfilerDeleteOp(t *testing.T) {
	m := newKRR(t, model.Options{K: 2, Seed: 1})
	m.Process(trace.Request{Key: 1, Op: trace.OpGet, Size: 1})
	m.Process(trace.Request{Key: 1, Op: trace.OpDelete})
	m.Process(trace.Request{Key: 1, Op: trace.OpGet, Size: 1})
	hist := histogram.NewDense(1024)
	if _, _, ok := m.ReadObjectHist(hist); !ok {
		t.Fatal("krr must expose its object histogram")
	}
	if hist.Cold() != 2 {
		t.Fatalf("cold = %d, want 2 (delete forgets)", hist.Cold())
	}
}

// TestBuildMRCConvenience: the one-call path (model.New + ProcessAll)
// builds a decreasing curve, and bad options propagate.
func TestBuildMRCConvenience(t *testing.T) {
	g := workload.NewZipf(1, 1000, 1.0, nil, 0)
	m := newKRR(t, model.Options{K: 5, Seed: 2})
	if err := model.ProcessAll(m, trace.LimitReader(g, 20000)); err != nil {
		t.Fatal(err)
	}
	curve := m.Snapshot().Object
	if curve.Eval(1000) >= curve.Eval(10) {
		t.Fatal("curve not decreasing")
	}
	if _, err := model.New("krr", model.Options{K: -1}); err == nil {
		t.Fatal("bad options must propagate")
	}
}

// TestBucketConfigValidate: krr-bucket's options are range-checked,
// and ratio 0 means core.DefaultBucketRatio.
func TestBucketConfigValidate(t *testing.T) {
	for _, bad := range []model.Options{
		{K: -1},
		{K: 5, BucketRatio: 0.5},
		{K: 5, BucketRatio: 9},
		{K: 5, SamplingRate: 2},
	} {
		if _, err := model.New("krr-bucket", bad); err == nil {
			t.Fatalf("options %+v must be rejected", bad)
		}
	}
	tr, _ := trace.Collect(workload.NewZipf(4, 2000, 0.9, nil, 0), 20000)
	curve := func(ratio float64) *mrc.Curve {
		m, err := model.New("krr-bucket", model.Options{K: 5, Seed: 1, BucketRatio: ratio})
		if err != nil {
			t.Fatal(err)
		}
		if err := model.ProcessAll(m, tr.Reader()); err != nil {
			t.Fatal(err)
		}
		return m.Snapshot().Object
	}
	if !sameCurve(curve(0), curve(core.DefaultBucketRatio)) {
		t.Fatalf("ratio 0 must select the default ratio %v", core.DefaultBucketRatio)
	}
	if sameCurve(curve(0), curve(4)) {
		t.Fatal("ratio 4 curve equals the default; the ratio check above proves nothing")
	}
}
