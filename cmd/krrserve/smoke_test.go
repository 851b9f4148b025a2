package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"krr/internal/mrc"
)

// TestServeSmoke exercises the real daemon end to end: build the
// binary, start it, stream a trace over HTTP, read a live curve and
// metrics, then SIGTERM it and check the graceful shutdown flushed a
// well-formed final curve. This is the check.sh serve-smoke stage.
func TestServeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "krrserve")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	// Reserve a port, free it, hand it to the daemon.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	finalPath := filepath.Join(dir, "final.json")
	cmd := exec.Command(bin, "-addr", addr, "-model", "krr", "-k", "5", "-seed", "1",
		"-workers", "2", "-final", finalPath)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	base := "http://" + addr
	waitHealthy(t, base)

	var b strings.Builder
	for i := 0; i < 5000; i++ {
		fmt.Fprintf(&b, "{\"key\": %d}\n", i%400)
	}
	resp, err := http.Post(base+"/tenants/default/ingest", "application/x-ndjson", strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}

	resp, err = http.Get(base + "/tenants/default/mrc?size=100")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/mrc status %d", resp.StatusCode)
	}

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	buf := make([]byte, 1<<16)
	for {
		n, rerr := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if rerr != nil {
			break
		}
	}
	resp.Body.Close()
	if !strings.Contains(sb.String(), "krrserve_ingest_requests_total 5000") {
		t.Fatalf("/metrics missing ingest counter:\n%s", sb.String())
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exited uncleanly: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not exit within 15s of SIGTERM")
	}

	f, err := os.Open(finalPath)
	if err != nil {
		t.Fatalf("final curve not written: %v", err)
	}
	defer f.Close()
	c, err := mrc.ReadJSON(f)
	if err != nil {
		t.Fatalf("final curve unreadable: %v", err)
	}
	if c.Len() < 2 || c.Eval(0) != 1 {
		t.Fatalf("final curve malformed: %d points", c.Len())
	}
}

func waitHealthy(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatal("daemon never became healthy")
}
