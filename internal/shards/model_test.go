package shards_test

import (
	"testing"

	"krr/internal/histogram"
	"krr/internal/model"
	"krr/internal/mrc"
	"krr/internal/sampling"
	"krr/internal/shards"
	"krr/internal/trace"
	"krr/internal/workload"
)

// Fixed-rate SHARDS is the shards model: the olken stack behind the
// model layer's spatial filter, plus the SHARDS_adj correction. These
// tests hold it, and FixedSize, to the exact olken model.

func zipfTrace(seed uint64, keys uint64, n int) *trace.Trace {
	g := workload.NewZipf(seed, keys, 0.8, nil, 0)
	tr, _ := trace.Collect(g, n)
	return tr
}

// replayed builds the named model and feeds it tr.
func replayed(t *testing.T, name string, opts model.Options, tr *trace.Trace) model.Model {
	t.Helper()
	m, err := model.New(name, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := model.ProcessAll(m, tr.Reader()); err != nil {
		t.Fatal(err)
	}
	return m
}

// exactLRU is the exact object curve of tr.
func exactLRU(t *testing.T, tr *trace.Trace) *mrc.Curve {
	t.Helper()
	return replayed(t, "olken", model.Options{Seed: 1}, tr).Snapshot().Object
}

func TestFixedRateApproximatesExactLRU(t *testing.T) {
	tr := zipfTrace(3, 50000, 300000)
	approx := replayed(t, "shards", model.Options{Seed: 2, SamplingRate: 0.3}, tr).Snapshot().Object
	sizes := mrc.EvenSizes(50000, 25)
	if mae := mrc.MAE(exactLRU(t, tr), approx, sizes); mae > 0.03 {
		t.Fatalf("fixed-rate SHARDS MAE %v vs exact LRU", mae)
	}
}

// TestFixedRateAdjustImprovesNormalization: SHARDS_adj only adds hits,
// so its curve lies on or below plain SHARDS (olken at the same rate),
// and it normalizes to about Seen·R sampled references. The curves'
// tails are cold/total with the same cold count, so their ratio is the
// ratio of the two totals.
func TestFixedRateAdjustImprovesNormalization(t *testing.T) {
	tr := zipfTrace(5, 20000, 100000)
	opts := model.Options{Seed: 2, SamplingRate: 0.1}
	plainModel := replayed(t, "olken", opts, tr)
	plain := plainModel.Snapshot().Object
	adj := replayed(t, "shards", opts, tr).Snapshot().Object
	for _, c := range plain.Sizes {
		if adj.Eval(c) > plain.Eval(c) {
			t.Fatalf("size %d: adjusted miss %v above plain %v", c, adj.Eval(c), plain.Eval(c))
		}
	}
	tail := plain.Sizes[len(plain.Sizes)-1] + 1
	total := float64(plainModel.Stats().Sampled) * plain.Eval(tail) / adj.Eval(tail)
	if want := float64(len(tr.Reqs)) * 0.1; total < want*0.999 {
		t.Fatalf("adjusted total %v, want >= %v", total, want)
	}
}

// TestFixedRateRejectsBadRate: the rate must lie in [0, 1], and 0
// selects the paper default.
func TestFixedRateRejectsBadRate(t *testing.T) {
	for _, rate := range []float64{-1, 1.5} {
		if _, err := model.New("shards", model.Options{SamplingRate: rate}); err == nil {
			t.Fatalf("rate %v: expected an error", rate)
		}
	}
	st := replayed(t, "shards", model.Options{}, zipfTrace(1, 50000, 20000)).Stats()
	if st.Sampled == 0 || st.Sampled >= st.Seen {
		t.Fatalf("rate 0 must sample at the default rate: %d of %d", st.Sampled, st.Seen)
	}
}

func TestFixedRateByteCurve(t *testing.T) {
	g := workload.NewTwitterLike(3, workload.TwitterParams{Keys: 5000, Alpha: 1.0})
	tr, _ := trace.Collect(g, 50000)
	c := replayed(t, "shards", model.Options{Seed: 2, SamplingRate: 0.5, Bytes: model.BytesOn}, tr).Snapshot().Byte
	if c.Len() < 2 {
		t.Fatal("byte curve empty")
	}
	if c.Eval(0) != 1 {
		t.Fatal("byte curve must start at 1")
	}
}

// TestFixedRateAdjustBulkMatchesLoop pins the SHARDS_adj shortfall
// credit to its original per-reference form: the shards curve must be
// exactly plain SHARDS' histogram with the shortfall added by one
// Add(1) per missing reference.
func TestFixedRateAdjustBulkMatchesLoop(t *testing.T) {
	tr := zipfTrace(9, 20000, 100000)
	opts := model.Options{Seed: 2, SamplingRate: 0.05}
	got := replayed(t, "shards", opts, tr).Snapshot().Object

	plain := replayed(t, "olken", opts, tr)
	hist := histogram.NewDense(1024)
	scale, st, ok := plain.ReadObjectHist(hist)
	if !ok {
		t.Fatal("olken must expose its object histogram")
	}
	expected := uint64(float64(st.Seen)*sampling.NewRate(opts.SamplingRate).Rate() + 0.5)
	for i := st.Sampled; i < expected; i++ {
		hist.Add(1)
	}
	want := mrc.FromHistogram(hist, scale)

	if len(got.Sizes) != len(want.Sizes) {
		t.Fatalf("breakpoint counts differ: %d vs %d", len(got.Sizes), len(want.Sizes))
	}
	for i := range got.Sizes {
		if got.Sizes[i] != want.Sizes[i] || got.Miss[i] != want.Miss[i] {
			t.Fatalf("curves differ at %d: (%d, %v) vs (%d, %v)",
				i, got.Sizes[i], got.Miss[i], want.Sizes[i], want.Miss[i])
		}
	}
}

func TestFixedSizeCurveReasonable(t *testing.T) {
	tr := zipfTrace(9, 30000, 200000)
	s := shards.NewFixedSize(1.0, 2000, 4)
	for _, req := range tr.Reqs {
		s.Process(req)
	}
	sizes := mrc.EvenSizes(30000, 20)
	if mae := mrc.MAE(exactLRU(t, tr), s.MRC(), sizes); mae > 0.06 {
		t.Fatalf("fixed-size SHARDS MAE %v", mae)
	}
}
