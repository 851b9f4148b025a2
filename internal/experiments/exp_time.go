package experiments

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"krr/internal/core"
	"krr/internal/model"
	"krr/internal/mrc"
	"krr/internal/simulator"
	"krr/internal/stats"
	"krr/internal/trace"
)

func init() {
	register(Experiment{
		ID:          "table5.3",
		Title:       "Stack update efficiency: time to process MSR src1 requests (K=5)",
		Description: "Simulation vs basic/top-down/backward stacks ± spatial sampling (Table 5.3).",
		Run:         runTable53,
	})
	register(Experiment{
		ID:          "fig5.4",
		Title:       "Normalized average stack update overhead vs K (baseline K=1)",
		Description: "Update cost growth with sampling size (Fig 5.4).",
		Run:         runFig54,
	})
	register(Experiment{
		ID:          "table5.4",
		Title:       "Merged MSR master trace: KRR + spatial vs SHARDS",
		Description: "Runtime comparison on the merged trace (Table 5.4).",
		Run:         runTable54,
	})
}

// timed runs fn over the first n requests of tr and returns the wall
// time and the per-request extrapolation to perMillion requests.
func timed(tr *trace.Trace, n int, fn func(trace.Reader) error) (time.Duration, time.Duration, error) {
	if n > tr.Len() || n <= 0 {
		n = tr.Len()
	}
	r := trace.LimitReader(tr.Reader(), n)
	start := time.Now()
	if err := fn(r); err != nil {
		return 0, 0, err
	}
	elapsed := time.Since(start)
	perM := time.Duration(float64(elapsed) / float64(n) * 1e6)
	return elapsed, perM, nil
}

func runTable53(opt Options) (*Result, error) {
	p := mustPreset("msr-src1")
	tr, sum, err := materialize(p, opt, false)
	if err != nil {
		return nil, err
	}
	const k = 5 // Redis's default maxmemory-samples
	rate := 0.01
	if r := rateFor(sum.DistinctObjects); r > rate {
		rate = r // keep >= 8K sampled objects, like the paper's footnote
	}
	table := Table{
		Title:   fmt.Sprintf("Processing %d requests of msr-src1-like (M=%d, K=%d)", tr.Len(), sum.DistinctObjects, k),
		Columns: []string{"method", "requests run", "wall time", "extrapolated / 1M requests"},
	}
	addRow := func(name string, n int, run func(trace.Reader) error) error {
		elapsed, perM, err := timed(tr, n, run)
		if err != nil {
			return err
		}
		used := n
		if used > tr.Len() || used <= 0 {
			used = tr.Len()
		}
		table.Rows = append(table.Rows, []string{name, fmt.Sprintf("%d", used), dur(elapsed), perM.Round(time.Millisecond).String()})
		return nil
	}

	// Ground-truth simulation at 25 sizes (serial, matching the
	// paper's single-machine interpolation run).
	simSizes := mrc.EvenSizes(uint64(sum.DistinctObjects), 25)
	if err := addRow("Simulation (25 sizes, interpolation)", tr.Len(), func(r trace.Reader) error {
		t2, err := trace.ReadAll(r)
		if err != nil {
			return err
		}
		_, err = simulator.KLRUMRC(t2, k, simSizes, opt.Seed, 1)
		return err
	}); err != nil {
		return nil, err
	}

	// Model rows, n requests each. The basic (linear) stack is O(N·M):
	// it runs a prefix and extrapolates. The sharded rows (this repo's
	// extension) fan the backward stack out across W hash-partitioned
	// workers; their timed region covers routing, channel hand-off and
	// the final drain.
	rows := []struct {
		name  string
		model string
		n     int
		opts  model.Options
	}{
		{"Basic Stack (linear update)", "krr-linear", 20000, model.Options{K: k, Seed: opt.Seed}},
		{"Top Down Stack Update", "krr-topdown", tr.Len(), model.Options{K: k, Seed: opt.Seed}},
		{"Backward Stack Update", "krr", tr.Len(), model.Options{K: k, Seed: opt.Seed}},
		{"Top Down + Spatial", "krr-topdown", tr.Len(), model.Options{K: k, Seed: opt.Seed, SamplingRate: rate}},
		{"Backward + Spatial", "krr", tr.Len(), model.Options{K: k, Seed: opt.Seed, SamplingRate: rate}},
		{"Backward, sharded W=2", "krr", tr.Len(), model.Options{K: k, Seed: opt.Seed, Workers: 2}},
		{"Backward, sharded W=4", "krr", tr.Len(), model.Options{K: k, Seed: opt.Seed, Workers: 4}},
	}
	for _, row := range rows {
		if err := addRow(row.name, row.n, func(r trace.Reader) error {
			m, err := model.New(row.model, row.opts)
			if err != nil {
				return err
			}
			err = model.ProcessAll(m, r)
			m.Close() // joins a sharded pipeline's workers
			return err
		}); err != nil {
			return nil, err
		}
	}
	return &Result{
		Tables: []Table{table},
		Notes: []string{
			fmt.Sprintf("spatial sampling rate R = %.3g", rate),
			"expected shape (Table 5.3): backward ≪ top-down ≪ linear; spatial sampling buys ~2 further orders of magnitude; simulation sits between top-down and linear",
			fmt.Sprintf("sharded rows run W stacks over key-partitioned substreams (scaling like SHARDS with R=1/W); on this machine GOMAXPROCS=%d, so gains beyond shorter per-shard swap chains require real cores", runtime.GOMAXPROCS(0)),
		},
	}, nil
}

func runFig54(opt Options) (*Result, error) {
	// A slice, not a map: the panel order (and so the CSV rows and
	// which family each plot file holds) must not vary between runs.
	familyReps := []struct {
		fam   string
		names []string
	}{
		{"YCSB", []string{"ycsb-c-0.99", "ycsb-e-0.99"}},
		{"MSR", []string{"msr-src1", "msr-web", "msr-usr"}},
		{"Twitter", []string{"tw-26.0", "tw-45.0"}},
	}
	fig := Figure{Title: "Fig 5.4"}
	var notes []string
	for _, rep := range familyReps {
		fam, names := rep.fam, rep.names
		// Average normalized per-request time of the practical
		// (spatially sampled) pipeline — the configuration the paper
		// profiles online — plus the pure per-update swap counts,
		// which expose the underlying O(K′ log M) growth.
		times := make([]stats.Welford, len(opt.Ks))
		swaps := make([]stats.Welford, len(opt.Ks))
		for _, name := range names {
			p := mustPreset(name)
			tr, sum, err := materialize(p, opt, false)
			if err != nil {
				return nil, err
			}
			rate := rateFor(sum.DistinctObjects)
			for ki, k := range opt.Ks {
				st, _, elapsed := stackRun(tr, core.KPrimeFor(k), opt.Seed, rate)
				times[ki].Add(float64(elapsed) / float64(tr.Len()))
				if st.Updates() > 0 {
					swaps[ki].Add(float64(st.SwapSteps()) / float64(st.Updates()))
				}
			}
		}
		norm := make([]float64, len(opt.Ks))
		swapNorm := make([]float64, len(opt.Ks))
		for ki := range opt.Ks {
			norm[ki] = times[ki].Mean() / times[0].Mean()
			if swaps[0].Mean() > 0 {
				swapNorm[ki] = swaps[ki].Mean() / swaps[0].Mean()
			}
		}
		xs := make([]float64, len(opt.Ks))
		for i, k := range opt.Ks {
			xs[i] = float64(k)
		}
		fig.Panels = append(fig.Panels, Panel{
			Title: fam, XLabel: "sampling size K", YLabel: "overhead / K=1",
			Series: []Series{
				{Name: "wall time", X: xs, Y: norm},
				{Name: "swap positions", X: xs, Y: swapNorm},
			},
		})
		k16idx := -1
		for i, k := range opt.Ks {
			if k == 16 {
				k16idx = i
			}
		}
		if k16idx >= 0 {
			notes = append(notes, fmt.Sprintf(
				"%s: K=16 sampled-pipeline wall ×%.2f (paper: ≤ ~4×); pure swap positions ×%.2f (theory: ~K′ = K^1.4 scaling, compressed by small-distance saturation)",
				fam, norm[k16idx], swapNorm[k16idx]))
		}
	}
	// Verify the dilution explanation: at the paper's R = 0.001 the
	// filtered requests (hash test only) dominate the pipeline, so the
	// K-overhead ratio compresses toward the paper's ≤ ~4×. Accuracy
	// is irrelevant here; this measures wall time only.
	{
		p := mustPreset("msr-src1")
		tr, _, err := materialize(p, opt, false)
		if err != nil {
			return nil, err
		}
		wall := func(k int) time.Duration {
			_, _, elapsed := stackRun(tr, core.KPrimeFor(k), opt.Seed, 0.001)
			return elapsed
		}
		t1, t16 := wall(1), wall(16)
		notes = append(notes, fmt.Sprintf(
			"at the paper's R=0.001 (filtered requests dominate): K=16 pipeline wall ×%.2f over K=1 — the ≤4× regime of Fig 5.4",
			float64(t16)/float64(t1)))
	}
	return &Result{Figures: []Figure{fig}, Notes: notes}, nil
}

func runTable54(opt Options) (*Result, error) {
	p := mustPreset("msr-master")
	tr, sum, err := materialize(p, opt, false)
	if err != nil {
		return nil, err
	}
	rate := rateFor(sum.DistinctObjects)

	// The paper streams a 190M-request on-disk trace through each
	// method, so decode dominates and the methods' wall times nearly
	// coincide. Reproduce that protocol: persist the trace, then
	// stream it from disk for every model.
	tmp, err := os.CreateTemp("", "krr-master-*.trace")
	if err != nil {
		return nil, err
	}
	defer os.Remove(tmp.Name())
	if err := trace.WriteBinary(tmp, tr); err != nil {
		return nil, err
	}
	tmp.Close()

	stream := func(process func(trace.Request)) (time.Duration, error) {
		f, err := os.Open(tmp.Name())
		if err != nil {
			return 0, err
		}
		defer f.Close()
		br, err := trace.NewBinaryReader(f)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		for {
			req, err := br.Next()
			if err != nil {
				break
			}
			process(req)
		}
		return time.Since(start), nil
	}

	table := Table{
		Title: fmt.Sprintf("Merged master trace streamed from disk (%d requests, M=%d, R=%.3g), averaged over K",
			tr.Len(), sum.DistinctObjects, rate),
		Columns: []string{"method", "mean wall time"},
	}
	var tdTotal, bwTotal time.Duration
	streamModel := func(name string, k int) (time.Duration, error) {
		m, err := model.New(name, model.Options{K: k, Seed: opt.Seed, SamplingRate: rate})
		if err != nil {
			return 0, err
		}
		return stream(func(req trace.Request) { _ = m.Process(req) }) // a serial model never fails a request
	}
	for _, k := range opt.Ks {
		td, err := streamModel("krr-topdown", k)
		if err != nil {
			return nil, err
		}
		tdTotal += td
		bw, err := streamModel("krr", k)
		if err != nil {
			return nil, err
		}
		bwTotal += bw
	}
	tdMean := tdTotal / time.Duration(len(opt.Ks))
	bwMean := bwTotal / time.Duration(len(opt.Ks))

	shTime, err := streamModel("shards", 0)
	if err != nil {
		return nil, err
	}

	table.Rows = [][]string{
		{"Top Down + Spatial (KRR)", dur(tdMean)},
		{"Backward + Spatial (KRR)", dur(bwMean)},
		{"SHARDS (fixed rate)", dur(shTime)},
	}
	return &Result{
		Tables: []Table{table},
		Notes: []string{
			"expected shape (Table 5.4): backward+spatial ≈ SHARDS; top-down ~2× slower",
			fmt.Sprintf("measured ratios: topdown/shards = %.2f, backward/shards = %.2f",
				float64(tdMean)/float64(shTime), float64(bwMean)/float64(shTime)),
			"the paper's near-parity reflects trace-decode dominance on its 190M-request trace; at this scale the per-update model cost is still visible",
		},
	}, nil
}
