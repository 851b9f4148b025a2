// krrbench is the repository's end-to-end benchmark. It builds
// cmd/krrserve from the source tree, runs it as a child process, and
// drives one named workload through the daemon's public surfaces — one
// wire connection and one HTTP keep-alive connection — from this
// process alone. It checks the daemon's outputs (curves bit-identical to
// an offline replay, request conservation, a valid final curve) and
// prints every metric as "workload metric value unit", then one JSON
// result line.
//
//	krrbench -workload bulk-bucket -seed 1 -seconds 10 -trace 0
//	krrbench -workload stream-aet -seed 1 -trace 1 -out runs/   # per-layer
//	krrbench -compare runsA/ runsB/                              # A/B verdicts
//
// Workloads, metric names, units and regression bounds are declared in
// BENCHMARK.json at the repository root, which the bench loads and
// holds its output to. bench/README.md explains each workload and the
// layer-to-metric map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (declared in BENCHMARK.json)")
		seed    = flag.Uint64("seed", 1, "input seed; the server sees only the generated requests")
		seconds = flag.Int("seconds", 0, "timed window in seconds (0 = BENCHMARK.json run_seconds)")
		traced  = flag.Int("trace", 0, "1 = traced run: spans, probes and the layer ladder; prints per-layer metrics")
		out     = flag.String("out", "", "directory for the run record (and spans when traced); with -compare, the report file")
		compare = flag.Bool("compare", false, "compare the run records in two -out directories: -compare A B")
	)
	flag.Parse()
	if err := mainErr(*name, *seed, *seconds, *traced, *out, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "krrbench:", err)
		os.Exit(1)
	}
}

func mainErr(name string, seed uint64, seconds, traced int, out string, compare bool, args []string) error {
	wd, err := os.Getwd()
	if err != nil {
		return err
	}
	root, err := findRoot(wd)
	if err != nil {
		return err
	}
	spec, err := loadSpec(filepath.Join(root, specFile))
	if err != nil {
		return err
	}
	if compare {
		if len(args) != 2 {
			return errors.New("-compare wants two run directories")
		}
		return compareRuns(spec, args[0], args[1], out)
	}
	if !spec.hasWorkload(name) {
		return fmt.Errorf("workload %q is not declared in %s", name, specFile)
	}
	if traced != 0 && traced != 1 {
		return fmt.Errorf("-trace %d, want 0 or 1", traced)
	}
	if seconds == 0 {
		seconds = spec.RunSeconds
	}
	bin := filepath.Join(root, ".bench_build", "bin", "krrserve")
	if err := buildServer(root, bin); err != nil {
		return err
	}
	res, err := execute(config{
		root: root, serverBin: bin, workload: name, seed: seed,
		seconds: time.Duration(seconds) * time.Second, traced: traced == 1,
	})
	if err != nil {
		return err
	}
	metrics := res.E2E
	if res.Traced {
		metrics = res.Layer
	}
	if err := spec.check(res.Traced, metrics); err != nil {
		return err
	}
	if out != "" {
		if err := save(res, out); err != nil {
			return err
		}
	}
	return report(os.Stdout, spec, res, metrics)
}

// report prints the run: host, diagnostics and (untraced) the window.*
// rows as comments, one "workload metric value unit" line per metric
// of the run's group, then the JSON result line.
func report(w io.Writer, spec *Spec, res *result, metrics map[string]float64) error {
	h := res.Host
	fmt.Fprintf(w, "# host commit=%s go=%s cpu=%q nproc=%d gomaxprocs_gen=%d gomaxprocs_server=%d\n",
		h.Commit, h.GoVersion, h.CPU, h.NProc, h.GenGOMAXPROCS, h.ServerGOMAXPROCS)
	for _, k := range sortedKeys(res.Info) {
		fmt.Fprintf(w, "# %s %s %s\n", res.Workload, k, strconv.FormatFloat(res.Info[k], 'g', -1, 64))
	}
	if !res.Traced {
		for _, k := range sortedKeys(res.Layer) {
			fmt.Fprintf(w, "# %s %s %s\n", res.Workload, k, strconv.FormatFloat(res.Layer[k], 'g', -1, 64))
		}
	}
	for _, f := range res.Failures {
		fmt.Fprintf(w, "# FAILED %s\n", f)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for _, m := range spec.group(res.Traced) {
		v := metrics[m.Name]
		fmt.Fprintf(w, "%s %s %s %s\n", res.Workload, m.Name, strconv.FormatFloat(v, 'g', -1, 64), m.Unit)
		line.Metrics[m.Name] = value{v, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// save writes the run record, and a traced run's spans, under dir.
func save(res *result, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", res.Workload, res.Seed))
	if res.Traced {
		base += "-traced"
		if err := res.tr.write(base + ".trace.json"); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(base+".json", data, 0o644)
}
