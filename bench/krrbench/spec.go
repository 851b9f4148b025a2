package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// specFile is the benchmark declaration at the repository root. It is
// the single source of workload and metric names and units: the bench
// refuses to run a workload it does not declare and refuses to print a
// result whose metric set differs from the declared one.
const specFile = "BENCHMARK.json"

// Spec mirrors BENCHMARK.json.
type Spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []SpecWorkload `json:"workloads"`
	EndToEnd   []SpecMetric   `json:"end_to_end"`
	PerLayer   []SpecMetric   `json:"per_layer"`
}

// SpecWorkload is one declared workload.
type SpecWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// SpecMetric is one declared metric. Bound is set only for end-to-end
// metrics: the share of the parent's median by which the metric may
// worsen before a change counts as a regression.
type SpecMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// findRoot walks up from dir to the nearest directory holding
// BENCHMARK.json: the checkout root, which is also the source tree the
// server is built from.
func findRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, specFile)); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no %s in any parent directory", specFile)
		}
		dir = parent
	}
}

// loadSpec reads and validates BENCHMARK.json.
func loadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := s.validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// validate enforces the declaration's shape: name and unit alphabets,
// unique names, and bounds on end-to-end metrics only.
func (s *Spec) validate() error {
	if len(s.Command) == 0 || len(s.Paths) == 0 {
		return errors.New("command and paths must be non-empty")
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		return fmt.Errorf("run_seconds %d out of [1, 60]", s.RunSeconds)
	}
	if n := len(s.Workloads); n < 2 || n > 8 {
		return fmt.Errorf("%d workloads, want 2..8", n)
	}
	seen := make(map[string]bool)
	use := func(name string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("name %q outside [A-Za-z0-9_.-]", name)
		}
		if seen[name] {
			return fmt.Errorf("name %q used twice", name)
		}
		seen[name] = true
		return nil
	}
	for _, w := range s.Workloads {
		if err := use(w.Name); err != nil {
			return err
		}
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			return fmt.Errorf("workload %s: why must be one line of 1..200 characters", w.Name)
		}
	}
	if len(s.EndToEnd) < 1 || len(s.EndToEnd) > 16 {
		return errors.New("end_to_end needs 1..16 metrics")
	}
	if len(s.PerLayer) < 1 || len(s.PerLayer) > 128 {
		return errors.New("per_layer needs 1..128 metrics")
	}
	for i, group := range [][]SpecMetric{s.EndToEnd, s.PerLayer} {
		for _, m := range group {
			if err := use(m.Name); err != nil {
				return err
			}
			if !unitRE.MatchString(m.Unit) {
				return fmt.Errorf("metric %s: unit %q outside [A-Za-z0-9_/%%.-]{1,16}", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				return fmt.Errorf("metric %s: better %q, want lower or higher", m.Name, m.Better)
			}
			switch {
			case i == 0 && (m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25):
				return fmt.Errorf("metric %s: end-to-end bound must be in (0, 0.25]", m.Name)
			case i == 1 && m.Bound != nil:
				return fmt.Errorf("metric %s: per-layer metrics carry no bound", m.Name)
			}
		}
	}
	if m, ok := s.metric("setup_s"); !ok || m.Unit != "s" || m.Better != "lower" || m.Bound == nil {
		return errors.New(`end_to_end must declare setup_s (unit "s", better "lower")`)
	}
	return nil
}

// metric looks a declared end-to-end or per-layer metric up by name.
func (s *Spec) metric(name string) (SpecMetric, bool) {
	for _, group := range [][]SpecMetric{s.EndToEnd, s.PerLayer} {
		for _, m := range group {
			if m.Name == name {
				return m, true
			}
		}
	}
	return SpecMetric{}, false
}

// hasWorkload reports whether name is declared.
func (s *Spec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// group returns the metrics a run prints: end-to-end untraced,
// per-layer traced.
func (s *Spec) group(traced bool) []SpecMetric {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}

// check fails on any measured name the group does not declare and on
// any declared name left unmeasured.
func (s *Spec) check(traced bool, got map[string]float64) error {
	declared := make(map[string]bool)
	var missing, extra []string
	for _, m := range s.group(traced) {
		declared[m.Name] = true
		if _, ok := got[m.Name]; !ok {
			missing = append(missing, m.Name)
		}
	}
	for name := range got {
		if !declared[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	if len(missing)+len(extra) > 0 {
		return fmt.Errorf("metric set differs from %s: missing %v, undeclared %v", specFile, missing, extra)
	}
	return nil
}
