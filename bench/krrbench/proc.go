package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildServer compiles cmd/krrserve from the source tree at root into
// out. The build is never timed.
func buildServer(root, out string) error {
	cmd := exec.Command("go", "build", "-o", out, "./cmd/krrserve")
	cmd.Dir = root
	if b, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/krrserve: %v\n%s", err, b)
	}
	return nil
}

// server is one krrserve child process and the bench's single HTTP
// keep-alive connection to it.
type server struct {
	cmd      *exec.Cmd
	pid      int
	base     string // http://host:port
	wireAddr string
	http     *http.Client
	stderr   bytes.Buffer  // krrserve logs a few lines; read after done
	done     chan struct{} // closed once Wait returned
	waitErr  error
}

// reservePorts returns n distinct free loopback addresses. All n
// listeners stay open until every port is known: closing each before
// asking for the next lets the kernel hand the same port out twice.
func reservePorts(n int) ([]string, error) {
	var addrs []string
	var lns []net.Listener
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, nil
}

// startServer spawns krrserve with the HTTP and wire listeners on free
// loopback ports and waits for /healthz. The wire queue is deep enough
// (64 frames) that a closed-loop segment of 32 frames is never shed.
func startServer(bin string) (*server, error) {
	addrs, err := reservePorts(2)
	if err != nil {
		return nil, err
	}
	httpAddr, wireAddr := addrs[0], addrs[1]
	s := &server{
		base:     "http://" + httpAddr,
		wireAddr: wireAddr,
		done:     make(chan struct{}),
		http: &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		},
	}
	// -final: the default tenant's curve goes to stdout at shutdown; the
	// bench never uses the default tenant, so stdout is discarded.
	s.cmd = exec.Command(bin, "-addr", httpAddr, "-tcp", wireAddr, "-tcp-queue", "64")
	s.cmd.Stdout = io.Discard
	s.cmd.Stderr = &s.stderr
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	s.pid = s.cmd.Process.Pid
	go func() {
		s.waitErr = s.cmd.Wait()
		close(s.done)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := s.http.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.done:
			return nil, fmt.Errorf("krrserve exited during start-up: %v\n%s", s.waitErr, s.stderr.String())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("krrserve not healthy after 30s")
		}
	}
}

// stop shuts the child down with SIGTERM (its graceful drain), escalates
// to SIGKILL after 10s, and returns once the process has exited.
func (s *server) stop() {
	s.http.CloseIdleConnections()
	select {
	case <-s.done:
		return
	default:
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// get issues one GET and returns the body; non-2xx is an error.
func (s *server) get(path string) ([]byte, error) {
	return s.do(http.MethodGet, path, "", nil)
}

// do issues one request on the keep-alive connection.
func (s *server) do(method, path, ctype string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(context.Background(), method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := s.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(out))
	}
	return out, nil
}

// scrape reads /metrics into name{labels} → value.
func (s *server) scrape() (map[string]float64, error) {
	body, err := s.get("/metrics")
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// counter reads one sample from a scrape; absent samples are an error
// so a renamed metric cannot silently read as zero.
func counter(m map[string]float64, name string) (uint64, error) {
	v, ok := m[name]
	if !ok {
		return 0, fmt.Errorf("/metrics has no %s", name)
	}
	return uint64(v), nil
}

// tenantCounter names a tenant-labeled sample.
func tenantCounter(name, tenant string) string {
	return fmt.Sprintf("%s{tenant=%q}", name, tenant)
}

// procValue returns the value of the first "name: value" line of a
// /proc text file.
func procValue(path, name string) (string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == name {
			return strings.TrimSpace(v), nil
		}
	}
	return "", fmt.Errorf("%s: no %s", path, name)
}

// statusField is the first word of a procValue.
func statusField(path, name string) (string, error) {
	v, err := procValue(path, name)
	if f := strings.Fields(v); err == nil && len(f) > 0 {
		return f[0], nil
	}
	return "", fmt.Errorf("%s: no %s", path, name)
}

// memKB reads a /proc/<pid>/status memory line (VmRSS, VmHWM) in
// bytes.
func memKB(pid int, field string) (uint64, error) {
	v, err := statusField(fmt.Sprintf("/proc/%d/status", pid), field)
	if err != nil {
		return 0, err
	}
	kb, err := strconv.ParseUint(v, 10, 64)
	return kb << 10, err
}

// threadStats sums a process's on-CPU time (schedstat, nanosecond
// precision, where utime+stime in /proc/<pid>/stat counts 10ms ticks)
// and its voluntary plus involuntary context switches over all its
// threads; the per-process files cover only the main thread.
func threadStats(pid int) (cpu time.Duration, ctxsw uint64, err error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*", pid))
	if err != nil || len(tasks) == 0 {
		return 0, 0, fmt.Errorf("no threads listed for pid %d", pid)
	}
	for _, task := range tasks {
		b, err := os.ReadFile(filepath.Join(task, "schedstat"))
		if err != nil {
			continue // the thread exited after the listing
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, 0, fmt.Errorf("%s/schedstat: empty", task)
		}
		ns, err := strconv.ParseUint(f[0], 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("%s/schedstat: %w", task, err)
		}
		cpu += time.Duration(ns)
		for _, name := range []string{"voluntary_ctxt_switches", "nonvoluntary_ctxt_switches"} {
			v, err := statusField(filepath.Join(task, "status"), name)
			if err != nil {
				continue
			}
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return 0, 0, err
			}
			ctxsw += n
		}
	}
	return cpu, ctxsw, nil
}

// cpusAllowed counts the CPUs in a process's affinity mask: the Go
// runtime's default GOMAXPROCS for that process.
func cpusAllowed(pid int) (int, error) {
	v, err := statusField(fmt.Sprintf("/proc/%d/status", pid), "Cpus_allowed_list")
	if err != nil {
		return 0, err
	}
	n := 0
	for _, r := range strings.Split(v, ",") {
		lo, hi, found := strings.Cut(r, "-")
		a, err := strconv.Atoi(lo)
		if err != nil {
			return 0, err
		}
		b := a
		if found {
			if b, err = strconv.Atoi(hi); err != nil {
				return 0, err
			}
		}
		n += b - a + 1
	}
	return n, nil
}

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostInfo is recorded with every run.
type hostInfo struct {
	Commit           string `json:"commit"`
	GoVersion        string `json:"go_version"`
	CPU              string `json:"cpu"`
	NProc            int    `json:"nproc"`
	GenGOMAXPROCS    int    `json:"gen_gomaxprocs"`
	ServerGOMAXPROCS int    `json:"server_gomaxprocs"`
}

// describeHost fills everything but the server's GOMAXPROCS, which is
// read from the child once it runs.
func describeHost(root string) hostInfo {
	h := hostInfo{
		Commit:        "unknown",
		GoVersion:     runtime.Version(),
		CPU:           "unknown",
		NProc:         runtime.NumCPU(),
		GenGOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	// Only a git checkout names its commit; an exported tree would
	// otherwise report whatever repository happens to enclose it.
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			h.Commit = strings.TrimSpace(string(out))
		}
	}
	if v, err := procValue("/proc/cpuinfo", "model name"); err == nil {
		h.CPU = v
	}
	return h
}
