package main

import (
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func loadRepoSpec(t *testing.T) *Spec {
	t.Helper()
	root, err := findRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(filepath.Join(root, specFile))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecDeclaresTheBench holds BENCHMARK.json and the bench to each
// other: the declared workloads are exactly the implemented ones.
// Metric-name agreement is checked on real runs by TestBenchSmoke.
func TestSpecDeclaresTheBench(t *testing.T) {
	spec := loadRepoSpec(t)
	var declared []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	if !slices.Equal(declared, workloadNames) {
		t.Fatalf("BENCHMARK.json declares %v, the bench implements %v", declared, workloadNames)
	}
}

func TestSpecValidateRejects(t *testing.T) {
	for name, mutate := range map[string]func(s *Spec){
		"name alphabet":      func(s *Spec) { s.PerLayer[0].Name = "core ref" },
		"name starts with .": func(s *Spec) { s.PerLayer[0].Name = ".core" },
		"duplicate name":     func(s *Spec) { s.PerLayer[1].Name = s.PerLayer[0].Name },
		"unit alphabet":      func(s *Spec) { s.EndToEnd[1].Unit = "req s" },
		"bound too wide":     func(s *Spec) { b := 0.3; s.EndToEnd[1].Bound = &b },
		"per-layer bound":    func(s *Spec) { b := 0.1; s.PerLayer[0].Bound = &b },
		"better":             func(s *Spec) { s.EndToEnd[1].Better = "more" },
		"no setup_s":         func(s *Spec) { s.EndToEnd[0].Name = "setup" },
		"multi-line why":     func(s *Spec) { s.Workloads[0].Why = "a\nb" },
		"run_seconds":        func(s *Spec) { s.RunSeconds = 61 },
	} {
		spec := loadRepoSpec(t)
		mutate(spec)
		if err := spec.validate(); err == nil {
			t.Errorf("%s: validate accepted the mutated spec", name)
		}
	}
}

func TestSpecCheck(t *testing.T) {
	spec := loadRepoSpec(t)
	got := make(map[string]float64)
	for _, m := range spec.EndToEnd {
		got[m.Name] = 1
	}
	if err := spec.check(false, got); err != nil {
		t.Fatalf("exact set rejected: %v", err)
	}
	got["undeclared_metric"] = 1
	if err := spec.check(false, got); err == nil || !strings.Contains(err.Error(), "undeclared_metric") {
		t.Errorf("extra name: %v", err)
	}
	delete(got, "undeclared_metric")
	delete(got, "setup_s")
	if err := spec.check(false, got); err == nil || !strings.Contains(err.Error(), "setup_s") {
		t.Errorf("missing name: %v", err)
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(v, n=4), the spread definition the bounds are
// judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
	} {
		q1, med, q3 := quartiles(c.in)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	bound := 0.1
	bounded := SpecMetric{Name: "rss_mb", Unit: "MB", Better: "lower", Bound: &bound}
	unbounded := SpecMetric{Name: "window.cpu_ns_per_req", Unit: "ns", Better: "lower"}
	runs := func(base float64, jitter ...float64) []float64 {
		var out []float64
		for i := 0; i < 10; i++ {
			out = append(out, base*(1+jitter[i%len(jitter)]))
		}
		return out
	}
	tight := []float64{-0.01, 0, 0.01}
	for _, c := range []struct {
		name string
		m    SpecMetric
		a, b []float64
		want string
	}{
		{"same", bounded, runs(100, tight...), runs(100, tight...), "unchanged"},
		{"worse beyond bound", bounded, runs(100, tight...), runs(120, tight...), "regressed"},
		{"better, every pair", bounded, runs(100, tight...), runs(95, tight...), "improved"},
		{"noisy parent", bounded, runs(100, -0.2, 0, 0.2), runs(99, tight...), "unresolved"},
		{"no bound, same", unbounded, runs(100, tight...), runs(100, tight...), "unresolved"},
		{"no bound, worse every pair", unbounded, runs(100, tight...), runs(105, tight...), "regressed"},
		{"no bound, better every pair", unbounded, runs(100, tight...), runs(95, tight...), "improved"},
	} {
		if got := verdict("w", c.m, c.a, c.b).Verdict; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "segment", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "frame", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "frame", Start: 20, End: 50},  // overlaps its sibling
		{ID: 4, Parent: 1, Name: "frame", Start: 90, End: 120}, // runs past its parent
	}}
	s := tr.summary()
	if got := s["segment"]; got.Count != 1 || got.TotalMS != 100e-6 || got.SelfMS != 50e-6 {
		t.Errorf("segment %+v, want total 100ns self 50ns", got)
	}
	if got := s["frame"]; got.Count != 3 || got.SelfMS != got.TotalMS {
		t.Errorf("frame %+v, want self == total", got)
	}
}

func TestReservePortsDistinct(t *testing.T) {
	for i := 0; i < 50; i++ {
		addrs, err := reservePorts(2)
		if err != nil {
			t.Fatal(err)
		}
		if addrs[0] == addrs[1] {
			t.Fatalf("reservePorts returned %s twice", addrs[0])
		}
	}
}
