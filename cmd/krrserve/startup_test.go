package main

import (
	"bytes"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestListenReleasesHTTPOnWireFailure checks listen binds both planes
// or neither: with the wire address taken it fails, and the HTTP
// address it bound first is free again.
func TestListenReleasesHTTPOnWireFailure(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	httpAddr := reservePort(t)

	if h, w, err := listen(httpAddr, taken.Addr().String()); err == nil {
		h.Close()
		w.Close()
		t.Fatal("listen succeeded on a taken wire address")
	} else if !strings.Contains(err.Error(), "wire listener") {
		t.Fatalf("listen error %q does not name the wire listener", err)
	}
	ln, err := net.Listen("tcp", httpAddr)
	if err != nil {
		t.Fatalf("HTTP address still bound after a failed listen: %v", err)
	}
	ln.Close()
}

// TestStartupFailsOnTakenWirePort runs the daemon with its wire
// address already taken: it must exit nonzero without ever answering
// /healthz or announcing its HTTP listener.
func TestStartupFailsOnTakenWirePort(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "krrserve")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	httpAddr := reservePort(t)

	var stderr bytes.Buffer
	cmd := exec.Command(bin, "-addr", httpAddr, "-tcp", taken.Addr().String())
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()

	// Poll /healthz until the process exits; any 200 is a failure.
	var healthy atomic.Bool
	stop := make(chan struct{})
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		client := &http.Client{Timeout: 100 * time.Millisecond}
		for {
			select {
			case <-stop:
				return
			default:
			}
			if resp, err := client.Get("http://" + httpAddr + "/healthz"); err == nil {
				if resp.StatusCode == http.StatusOK {
					healthy.Store(true)
				}
				resp.Body.Close()
			}
			time.Sleep(time.Millisecond)
		}
	}()

	select {
	case err = <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("daemon kept running with its wire address taken")
	}
	close(stop)
	<-polled
	if err == nil {
		t.Fatal("daemon exited 0 with its wire address taken")
	}
	log := stderr.String()
	if !strings.Contains(log, "wire listener") {
		t.Fatalf("exit log does not name the wire listener:\n%s", log)
	}
	if strings.Contains(log, "listening on") {
		t.Fatalf("daemon announced a listener before failing:\n%s", log)
	}
	if healthy.Load() {
		t.Fatal("/healthz answered 200 before the wire bind failed")
	}
}
