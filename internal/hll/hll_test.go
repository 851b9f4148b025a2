package hll

import "testing"

// TestRankCappedByGuardBit: a hash whose bits below the register index
// are all zero has the largest rank, 64-p+1, at every precision.
func TestRankCappedByGuardBit(t *testing.T) {
	for _, p := range []uint8{4, 12, 14, 18} {
		h := New(p)
		h.Add(3 << (64 - p)) // register 3, rest all zero
		if got, want := h.reg[3], uint8(64-p+1); got != want {
			t.Fatalf("p=%d: rank %d, want %d", p, got, want)
		}
	}
}

// TestCloneIsIndependent: adding to a clone leaves the original's
// registers, and so its estimate, untouched.
func TestCloneIsIndependent(t *testing.T) {
	h := New(12)
	for i := uint64(0); i < 1000; i++ {
		h.Add(i * 0x9e3779b97f4a7c15)
	}
	before := h.Estimate()
	c := h.Clone()
	for i := uint64(1000); i < 5000; i++ {
		c.Add(i * 0x9e3779b97f4a7c15)
	}
	if h.Estimate() != before {
		t.Fatal("adding to the clone changed the original")
	}
	if c.Estimate() <= before {
		t.Fatal("clone did not take the new hashes")
	}
}

func TestNewPanicsOnBadPrecision(t *testing.T) {
	for _, p := range []uint8{3, 19} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("p=%d: expected panic", p)
				}
			}()
			New(p)
		}()
	}
}
