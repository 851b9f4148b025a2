package simulator

import (
	"math"
	"testing"

	"krr/internal/model"
	"krr/internal/trace"
	"krr/internal/workload"
)

// TestByteLRUMatchesOlkenByteCurve cross-checks the two byte-level
// exact-LRU implementations: a byte-capacity LRU cache keeps a prefix
// of the recency order, so a reference hits iff its inclusive byte
// stack distance fits the budget — the quantity the Olken tree
// computes.
func TestByteLRUMatchesOlkenByteCurve(t *testing.T) {
	g := workload.NewTwitterLike(5, workload.TwitterParams{Keys: 3000, Alpha: 1.0})
	tr, _ := trace.Collect(g, 60000)

	m, err := model.New("olken", model.Options{Seed: 1, Bytes: model.BytesOn})
	if err != nil {
		t.Fatal(err)
	}
	if err := model.ProcessAll(m, tr.Reader()); err != nil {
		t.Fatal(err)
	}
	curve := m.Snapshot().Byte
	last := map[uint64]uint32{}
	for _, req := range tr.Reqs {
		last[req.Key] = req.Size
	}
	var wss uint64
	for _, size := range last {
		wss += uint64(size)
	}

	for _, frac := range []float64{0.1, 0.3, 0.6, 0.9} {
		capBytes := uint64(float64(wss) * frac)
		st, err := Run(NewLRU(ByteCapacity(capBytes)), tr.Reader())
		if err != nil {
			t.Fatal(err)
		}
		got := st.MissRatio()
		want := curve.Eval(capBytes)
		// The stack model is an idealization of "evict until fit"; the
		// two agree up to boundary effects from objects straddling the
		// budget.
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("cap %d: simulated %v vs olken byte curve %v", capBytes, got, want)
		}
	}
}
