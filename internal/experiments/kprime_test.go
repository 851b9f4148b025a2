package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"krr/internal/core"
	"krr/internal/mrc"
	"krr/internal/trace"
	"krr/internal/workload"
)

// The K′ ablation drives core stacks through stackRun. Its curves were
// recorded with the former core.Profiler (Config.KPrime set) on the
// same fixed trace and digest as internal/model's oracle test.

// oracleTrace is the fixed stream the recorded digests were taken on:
// variable-size msr-web with every 29th request turned into a delete
// and every 37th resized, so the delete path and the byte trackers'
// Resize path both run.
func oracleTrace(t testing.TB) *trace.Trace {
	t.Helper()
	p, ok := workload.ByName("msr-web")
	if !ok {
		t.Fatal("missing msr-web preset")
	}
	tr, err := trace.Collect(p.New(0.03, 7, true), 12000)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Reqs {
		switch {
		case i%29 == 28:
			tr.Reqs[i].Op = trace.OpDelete
		case i%37 == 36:
			tr.Reqs[i].Size = tr.Reqs[i].Size/2 + 1
		}
	}
	return tr
}

// curveDigest is the SHA-256 over a curve's sizes and the bits of its
// miss ratios, little-endian; "" for a nil curve.
func curveDigest(c *mrc.Curve) string {
	if c == nil {
		return ""
	}
	h := sha256.New()
	var b [8]byte
	for _, s := range c.Sizes {
		binary.LittleEndian.PutUint64(b[:], s)
		h.Write(b[:])
	}
	for _, m := range c.Miss {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(m))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestKPrimeAblationMatchesRecordedDigests(t *testing.T) {
	tr := oracleTrace(t)
	for _, c := range []struct {
		k         int
		corrected bool
		digest    string
	}{
		{4, false, "572ce75618018f69c6331ea6da843cfd2c0cd4665515730d66e8601e8176c179"},
		{4, true, "49f3e90c2586a02053e4d13de001b5132f5eecaad03b7bd709c942ff6f76a9d0"},
		{8, false, "f52a7251ae971e74aa608562f7de71b6644d404184059726f4bd91d161fe8ed3"},
		{8, true, "43d4c8d625e4192332edbb5d783933166fa38ea5a4614363db677445fc121ead"},
		{16, false, "b3f4fe5e6580d04b12df2dfe648142c9d1710191b5da74be2af81acf6b4afc28"},
		{16, true, "d250cdbd6869e236f4cc43c0753cc036abe9d3aa0415608d46d8a51a28b19c66"},
	} {
		kPrime := float64(c.k)
		if c.corrected {
			kPrime = core.KPrimeFor(c.k)
		}
		_, curve, _ := stackRun(tr, kPrime, 3, 0)
		if got := curveDigest(curve); got != c.digest {
			t.Errorf("K=%d corrected=%v: digest %s, want %s", c.k, c.corrected, got, c.digest)
		}
	}
}
