// External test package: the controller and the RESP server meet only
// through their exported APIs, as they would in a deployment.
package dlru_test

import (
	"strconv"
	"testing"

	"krr/internal/dlru"
	"krr/internal/redislike"
	"krr/internal/trace"
	"krr/internal/workload"
)

// TestControllerDrivesRedisOverRESP is the full DLRU deployment story:
// the controller shadows the request stream with KRR profilers and
// reconfigures a live redislike server's maxmemory-samples over the
// wire via CONFIG SET — exactly how DLRU manages a real Redis.
func TestControllerDrivesRedisOverRESP(t *testing.T) {
	const budget = 400
	const objCost = 200 + 48
	srv := redislike.NewServer(redislike.Config{
		MaxMemory: budget * objCost,
		Samples:   32,
		Seed:      5,
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := redislike.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	tunable := redislike.NewTunableClient(client)

	ctl, err := dlru.New(dlru.Config{
		BudgetObjects: budget,
		Candidates:    []int{1, 32},
		Window:        5_000,
		SamplingRate:  0.5,
		Seed:          3,
	}, tunable)
	if err != nil {
		t.Fatal(err)
	}
	// New resets the live server to the first candidate over RESP.
	if v, _ := client.ConfigGet("maxmemory-samples"); v != "1" {
		t.Fatalf("initial maxmemory-samples = %q", v)
	}

	// A loop larger than the budget: the controller must keep K=1.
	g := workload.NewLoop(800, nil)
	if err := ctl.ProcessAll(trace.LimitReader(g, 25_000)); err != nil {
		t.Fatal(err)
	}
	if err := tunable.Err(); err != nil {
		t.Fatal(err)
	}
	if got := ctl.CurrentK(); got != 1 {
		t.Fatalf("controller K = %d, want 1 on a loop", got)
	}
	v, err := client.ConfigGet("maxmemory-samples")
	if err != nil || v != strconv.Itoa(ctl.CurrentK()) {
		t.Fatalf("server samples %q diverged from controller %d (err %v)", v, ctl.CurrentK(), err)
	}
	// The server really served the stream.
	if n, _ := client.Do("DBSIZE"); n == "0" {
		t.Fatal("server holds no keys")
	}
}
