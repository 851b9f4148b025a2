package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestBenchSmoke builds krrserve and runs every declared workload
// traced for one second. Each run must pass every correctness check,
// measure exactly the declared end-to-end and per-layer metric sets,
// and print each of its metrics once with its declared unit. It makes
// no timing assertions.
func TestBenchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon for every workload")
	}
	root, err := findRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(filepath.Join(root, specFile))
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "krrserve")
	if err := buildServer(root, bin); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, err := execute(config{root: root, serverBin: bin, workload: w.Name, seed: 1, seconds: time.Second, traced: true})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("correct=%v failed=%d: %v", res.Correct, res.Failed, res.Failures)
			}
			if err := spec.check(false, res.E2E); err != nil {
				t.Errorf("end-to-end: %v", err)
			}
			if err := spec.check(true, res.Layer); err != nil {
				t.Errorf("per-layer: %v", err)
			}

			var out bytes.Buffer
			if err := report(&out, spec, res, res.Layer); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			printed := make(map[string]int)
			for _, line := range lines[:len(lines)-1] {
				f := strings.Fields(line)
				if f[0] == "#" {
					continue
				}
				if len(f) != 4 || f[0] != w.Name {
					t.Fatalf("malformed metric line %q", line)
				}
				if m, ok := spec.metric(f[1]); !ok || m.Unit != f[3] {
					t.Errorf("line %q: undeclared metric or wrong unit", line)
				}
				printed[f[1]]++
			}
			for _, m := range spec.PerLayer {
				if printed[m.Name] != 1 {
					t.Errorf("%s printed %d times, want once", m.Name, printed[m.Name])
				}
			}
			var last struct {
				Correct   *bool                      `json:"correct"`
				Attempted *uint64                    `json:"attempted"`
				Failed    *uint64                    `json:"failed"`
				Metrics   map[string]json.RawMessage `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("result line: %v", err)
			}
			if last.Correct == nil || last.Attempted == nil || *last.Attempted == 0 || last.Failed == nil ||
				len(last.Metrics) != len(spec.PerLayer) {
				t.Errorf("result line %s", lines[len(lines)-1])
			}
		})
	}
}
