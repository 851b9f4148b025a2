// Command krrmrc constructs a miss ratio curve from a trace in one
// pass, using any model registered in the unified model layer (KRR,
// Olken exact-LRU, SHARDS, AET, Counter Stacks, MIMIR, ...) or
// brute-force simulation.
//
// Usage:
//
//	krrmrc -trace web.trace -k 10 -rate 0.001
//	krrmrc -preset msr-web -n 500000 -k 5 -model krr -bytes sizearray
//	krrmrc -preset ycsb-c-0.99 -model lru
//	krrmrc -preset msr-src1 -model sim -k 5 -points 25
//	krrmrc -preset msr-web -model krr -k 8 -workers 4
//	krrmrc -list-models
//	krrmrc -selftest
//	krrmrc -selftest -trace web.trace -n 50000
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"krr/internal/difftest"
	"krr/internal/model"
	"krr/internal/mrc"
	"krr/internal/simulator"
	"krr/internal/trace"
	"krr/internal/workload"
)

func main() {
	var (
		traceFile   = flag.String("trace", "", "binary trace file (alternative to -preset)")
		preset      = flag.String("preset", "", "workload preset name")
		n           = flag.Int("n", 0, "request cap (0 = whole trace / preset default)")
		scale       = flag.Float64("scale", 1.0, "preset key-space scale")
		variable    = flag.Bool("var", false, "variable object sizes for presets")
		modelName   = flag.String("model", "krr", "model name (see -list-models), or sim / opt")
		k           = flag.Int("k", 5, "K-LRU sampling size (krr* and sim models)")
		method      = flag.String("method", "", "krr update: backward, topdown, linear")
		bytesMode   = flag.String("bytes", "off", "byte distances: off, on, uniform, sizearray, fenwick")
		rate        = flag.Float64("rate", 0, "spatial sampling rate (0 = off / model default)")
		workers     = flag.Int("workers", 0, "sharded pipeline workers (<=1 = serial)")
		bucketRatio = flag.Float64("bucket-ratio", 0, "krr-bucket geometric bucket ratio (0 = default)")
		alpha       = flag.Float64("alpha", 0, "che/fagin fallback Zipf exponent for degenerate fits (0 = default)")
		points      = flag.Int("points", 25, "simulated sizes (sim and opt models)")
		seed        = flag.Uint64("seed", 42, "random seed")
		format      = flag.String("format", "csv", "output format: csv or json")
		out         = flag.String("o", "", "output file (default: stdout)")
		listModels  = flag.Bool("list-models", false, "print the model registry as a markdown table and exit")
		selftest    = flag.Bool("selftest", false, "run the differential correctness harness and exit")
	)
	flag.Parse()

	if *listModels {
		writeModelTable(os.Stdout)
		return
	}
	if *selftest {
		runSelftest(*traceFile, *preset, *n, *scale, *seed, *variable, *k)
		return
	}

	name, err := resolveModel(*modelName, *method)
	if err != nil {
		fatal(err)
	}

	tr, err := loadTrace(*traceFile, *preset, *n, *scale, *seed, *variable)
	if err != nil {
		fatal(err)
	}
	sum, err := trace.Summarize(tr.Reader())
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "krrmrc: %d requests, %d distinct objects\n", sum.Requests, sum.DistinctObjects)

	var curve *mrc.Curve
	switch name {
	case "sim":
		sizes := mrc.EvenSizes(uint64(sum.DistinctObjects), *points)
		curve, err = simulator.KLRUMRC(tr, *k, sizes, *seed, 0)
		if err != nil {
			fatal(err)
		}
	case "opt":
		sizes := mrc.EvenSizes(uint64(sum.DistinctObjects), *points)
		curve = simulator.OPTMRC(tr, sizes, 0)
	default:
		bm, ok := model.ByteModeByName(*bytesMode)
		if !ok {
			fatal(fmt.Errorf("unknown bytes mode %q", *bytesMode))
		}
		m, err := model.New(name, model.Options{
			K:             *k,
			Seed:          *seed,
			SamplingRate:  *rate,
			Bytes:         bm,
			Workers:       *workers,
			BucketRatio:   *bucketRatio,
			AnalyticAlpha: *alpha,
		})
		if err != nil {
			fatal(err)
		}
		if err := model.ProcessAll(m, tr.Reader()); err != nil {
			fatal(err)
		}
		snap := m.Snapshot()
		m.Close()
		curve = snap.Object
		if bm != model.BytesOff {
			curve = snap.Byte
		}
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	ds := curve.Downsample(2000)
	switch *format {
	case "csv":
		err = ds.WriteCSV(w)
	case "json":
		err = ds.WriteJSON(w)
	default:
		err = fmt.Errorf("unknown format %q", *format)
	}
	if err != nil {
		fatal(err)
	}
}

// resolveModel folds the legacy -method flag into the registry name:
// "-model krr -method topdown" selects krr-topdown. The simulator
// pseudo-models sim and opt pass through untouched.
func resolveModel(name, method string) (string, error) {
	if name == "sim" || name == "opt" {
		return name, nil
	}
	if method != "" && method != "backward" {
		if name != "krr" {
			return "", fmt.Errorf("-method only applies to -model krr")
		}
		name = "krr-" + method
	}
	if _, ok := model.Lookup(name); !ok {
		return "", fmt.Errorf("unknown model %q (have %s, sim, opt)",
			name, strings.Join(model.Names(), ", "))
	}
	return name, nil
}

// writeModelTable renders the registry as the markdown table embedded
// in the README's "Models" section.
func writeModelTable(w io.Writer) {
	fmt.Fprintln(w, "| Model | Target | Technique | Per-reference cost | Space | Capabilities |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|")
	for _, info := range model.All() {
		name := "`" + info.Name + "`"
		if len(info.Aliases) > 0 {
			name += " (alias `" + strings.Join(info.Aliases, "`, `") + "`)"
		}
		fmt.Fprintf(w, "| %s | %s | %s | %s | %s | %s |\n",
			name, info.Target, info.Paper, info.Complexity, info.Space, info.Caps)
	}
}

// runSelftest drives every registered model through the differential
// harness — against the built-in deterministic trials, or against a
// user-supplied trace/preset when one is given — and exits non-zero
// if any model leaves its declared error envelope.
func runSelftest(file, preset string, n int, scale float64, seed uint64, variable bool, k int) {
	var trials []difftest.Trial
	if file != "" || preset != "" {
		tr, err := loadTrace(file, preset, n, scale, seed, variable)
		if err != nil {
			fatal(err)
		}
		name := preset
		if name == "" {
			name = "trace"
		}
		trial, err := difftest.NewTrial(name, tr.Reader(), tr.Len(), k, seed)
		if err != nil {
			fatal(err)
		}
		trials = []difftest.Trial{trial}
	} else {
		trials = difftest.FastTrials()
	}
	runner := difftest.NewRunner(0)
	failed := 0
	for _, res := range runner.RunAll(trials) {
		fmt.Println(res)
		if !res.Pass() {
			failed++
		}
	}
	if failed > 0 {
		fatal(fmt.Errorf("selftest: %d check(s) failed", failed))
	}
	fmt.Println("selftest: all models within their envelopes")
}

func loadTrace(file, preset string, n int, scale float64, seed uint64, variable bool) (*trace.Trace, error) {
	if file != "" {
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		br, err := trace.NewBinaryReader(f)
		if err != nil {
			return nil, err
		}
		if n > 0 {
			return trace.Collect(br, n)
		}
		return trace.ReadAll(br)
	}
	p, ok := workload.ByName(preset)
	if !ok {
		return nil, fmt.Errorf("unknown preset %q and no -trace given", preset)
	}
	count := n
	if count <= 0 {
		count = p.DefaultRequests
	}
	return trace.Collect(p.New(scale, seed, variable), count)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "krrmrc: %v\n", err)
	os.Exit(1)
}
