package counterstacks_test

import (
	"testing"

	"krr/internal/counterstacks"
	"krr/internal/model"
	"krr/internal/mrc"
	"krr/internal/trace"
	"krr/internal/workload"
)

// This test checks counterstacks against the exact olken model.
// internal/model imports counterstacks, so it lives outside the package.

// exactLRU is the exact object curve of tr, from the olken model.
func exactLRU(t *testing.T, tr *trace.Trace) *mrc.Curve {
	t.Helper()
	m, err := model.New("olken", model.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := model.ProcessAll(m, tr.Reader()); err != nil {
		t.Fatal(err)
	}
	return m.Snapshot().Object
}

func TestMatchesExactLRUOnZipf(t *testing.T) {
	g := workload.NewZipf(3, 20000, 0.8, nil, 0)
	tr, _ := trace.Collect(g, 300000)

	s := counterstacks.New(counterstacks.Config{DownsampleInterval: 500, MaxCounters: 128})
	for _, req := range tr.Reqs {
		s.Process(req)
	}
	est := mrc.FromHistogram(s.SnapshotHist(), 1)

	truth := exactLRU(t, tr)

	sizes := mrc.EvenSizes(20000, 20)
	if mae := mrc.MAE(est, truth, sizes); mae > 0.06 {
		t.Fatalf("counter stacks vs exact LRU MAE %v", mae)
	}
}
