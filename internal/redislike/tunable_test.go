package redislike

import (
	"testing"

	"krr/internal/trace"
)

func TestConfigGetSet(t *testing.T) {
	_, addr := startServer(t, Config{MaxMemory: 10000, Samples: 5, Seed: 1})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if v, err := c.ConfigGet("maxmemory-samples"); err != nil || v != "5" {
		t.Fatalf("ConfigGet: %q %v", v, err)
	}
	if err := c.ConfigSet("maxmemory-samples", "12"); err != nil {
		t.Fatal(err)
	}
	if v, _ := c.ConfigGet("maxmemory-samples"); v != "12" {
		t.Fatalf("after set: %q", v)
	}
	if v, _ := c.ConfigGet("maxmemory"); v != "10000" {
		t.Fatalf("maxmemory: %q", v)
	}
	if err := c.ConfigSet("maxmemory", "2000"); err != nil {
		t.Fatal(err)
	}
	if v, _ := c.ConfigGet("maxmemory"); v != "2000" {
		t.Fatalf("after maxmemory set: %q", v)
	}
	// Errors.
	if err := c.ConfigSet("maxmemory-samples", "abc"); err == nil {
		t.Fatal("non-integer must fail")
	}
	if err := c.ConfigSet("appendonly", "yes"); err == nil {
		t.Fatal("unsupported parameter must fail")
	}
}

func TestConfigSetMaxMemoryEvictsImmediately(t *testing.T) {
	const objCost = 100 + perKeyOverhead
	_, addr := startServer(t, Config{MaxMemory: 100 * objCost, Seed: 3})
	c, _ := Dial(addr)
	defer c.Close()
	for k := uint64(0); k < 100; k++ {
		c.Set(k, 100)
	}
	if n, _ := c.Do("DBSIZE"); n != "100" {
		t.Fatalf("dbsize %q", n)
	}
	if err := c.ConfigSet("maxmemory", "1480"); err != nil { // ~10 objects
		t.Fatal(err)
	}
	n, _ := c.Do("DBSIZE")
	if n != "10" && n != "9" {
		t.Fatalf("dbsize after shrink = %q, want ~10", n)
	}
}

func TestTunableClientDrivesServer(t *testing.T) {
	const objCost = 200 + perKeyOverhead
	_, addr := startServer(t, Config{MaxMemory: 50 * objCost, Samples: 5, Seed: 7})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tc := NewTunableClient(c)

	// Cache-aside semantics over the wire.
	if tc.Access(trace.Request{Key: 1, Size: 200, Op: trace.OpGet}) {
		t.Fatal("first access must miss")
	}
	if !tc.Access(trace.Request{Key: 1, Size: 200, Op: trace.OpGet}) {
		t.Fatal("second access must hit")
	}
	tc.Access(trace.Request{Key: 1, Op: trace.OpDelete})
	if tc.Access(trace.Request{Key: 1, Size: 200, Op: trace.OpGet}) {
		t.Fatal("deleted key must miss")
	}

	// Online reconfiguration reaches the engine.
	tc.SetSamplingSize(9)
	if v, _ := c.ConfigGet("maxmemory-samples"); v != "9" {
		t.Fatalf("samples after SetSamplingSize: %q", v)
	}
	if err := tc.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestEngineSetSamplesFloor(t *testing.T) {
	e := NewEngine(Config{Seed: 1})
	e.SetSamples(0)
	if e.Samples() != 1 {
		t.Fatalf("samples floor: %d", e.Samples())
	}
}

// TestFlushAllKeepsConfigSet checks that FLUSHALL drops the data but
// keeps the config in force, as Redis does: settings changed by
// CONFIG SET must survive, not fall back to the start-up config.
func TestFlushAllKeepsConfigSet(t *testing.T) {
	_, addr := startServer(t, Config{MaxMemory: 1 << 20, Samples: 5, Policy: PolicyLFU, Seed: 1})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.ConfigSet("maxmemory-samples", "1"); err != nil {
		t.Fatal(err)
	}
	if err := c.ConfigSet("maxmemory", "4096"); err != nil {
		t.Fatal(err)
	}
	c.Set(1, 100)
	if _, err := c.Do("FLUSHALL"); err != nil {
		t.Fatal(err)
	}
	for param, want := range map[string]string{
		"maxmemory-samples": "1",
		"maxmemory":         "4096",
		"maxmemory-policy":  "lfu",
	} {
		if v, err := c.ConfigGet(param); err != nil || v != want {
			t.Fatalf("%s after FLUSHALL = %q (%v), want %q", param, v, err, want)
		}
	}
	// The restored limit is in force, not only reported.
	for k := uint64(0); k < 100; k++ {
		c.Set(k, 100)
	}
	if n, _ := c.Do("DBSIZE"); n != "27" && n != "26" {
		t.Fatalf("dbsize under maxmemory 4096 = %q, want ~27", n)
	}
}
