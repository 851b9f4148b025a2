package dlru

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"krr/internal/simulator"
	"krr/internal/trace"
	"krr/internal/workload"
)

// oracleRun drives a controller over the fixed trace the recorded
// digest was taken on — a loop larger than the budget mixed with
// Zipf traffic, so the choice of K moves between windows — and
// returns it with the live cache's hit count.
func oracleRun(t *testing.T) (*Controller, uint64) {
	t.Helper()
	const budget = 1500
	cache := simulator.NewKLRU(simulator.ObjectCapacity(budget), 1, true, 13)
	ctl, err := New(Config{
		BudgetObjects: budget,
		Candidates:    []int{1, 2, 4, 8, 16, 32},
		Window:        8_000,
		SamplingRate:  0.3,
		Seed:          17,
	}, cache)
	if err != nil {
		t.Fatal(err)
	}
	mix := workload.NewMix(19, []trace.Reader{
		workload.NewLoop(2500, nil),
		workload.NewZipf(23, 20000, 0.8, nil, 0),
	}, []float64{1, 1})
	var hits uint64
	r := trace.LimitReader(mix, 100_000)
	for {
		req, err := r.Next()
		if err != nil {
			break
		}
		if ctl.Process(req) {
			hits++
		}
	}
	return ctl, hits
}

// decisionDigest is the SHA-256 over the decision log — request
// count, budget, chosen K, switch flag and every candidate's predicted
// miss bits in candidate order — followed by the live cache's hits.
func decisionDigest(ctl *Controller, hits uint64) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, d := range ctl.Decisions() {
		put(d.AtRequest)
		put(d.BudgetObjects)
		put(uint64(d.ChosenK))
		if d.Switched {
			put(1)
		} else {
			put(0)
		}
		for _, k := range ctl.cfg.Candidates {
			put(math.Float64bits(d.Predicted[k]))
		}
	}
	put(hits)
	return hex.EncodeToString(h.Sum(nil))
}

// TestDecisionLogMatchesRecordedDigest pins the controller to the
// decision log (and live-cache hits) recorded when its shadow
// profilers were core.Profiler values; they are krr models now.
func TestDecisionLogMatchesRecordedDigest(t *testing.T) {
	ctl, hits := oracleRun(t)
	if n := len(ctl.Decisions()); n != 12 {
		t.Fatalf("%d decisions, want 12", n)
	}
	const want = "52e32fd624a951bc1a0994f5d4bb4c493d94b0f5bcf9109b71b24a884d4ba2eb"
	if got := decisionDigest(ctl, hits); got != want {
		t.Fatalf("decision log digest %s, want %s (hits %d)", got, want, hits)
	}
}

// TestShadowModelsKeepStreamingAcrossDecisions guards the read path:
// a decision must leave the shadow models streaming, or every request
// after the first window would be dropped while the decisions kept
// reading a frozen curve.
func TestShadowModelsKeepStreamingAcrossDecisions(t *testing.T) {
	ctl, _ := oracleRun(t)
	if len(ctl.Decisions()) < 2 {
		t.Fatal("need two or more decision windows")
	}
	for k, p := range ctl.profilers {
		st := p.Stats()
		if st.Seen != ctl.count {
			t.Fatalf("K=%d shadow model: %+v after %d requests", k, st, ctl.count)
		}
	}
	// Predictions move between the first and the last window only if
	// the models kept ingesting in between.
	d := ctl.Decisions()
	if d[0].Predicted[1] == d[len(d)-1].Predicted[1] {
		t.Fatal("predictions frozen across decisions")
	}
}
