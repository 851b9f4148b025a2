package experiments

import (
	"fmt"

	"krr/internal/core"
	"krr/internal/mrc"
)

func init() {
	register(Experiment{
		ID:          "space",
		Title:       "Space cost of the KRR stack (§5.6)",
		Description: "Metadata bytes per tracked object and the effect of spatial sampling.",
		Run:         runSpace,
	})
	register(Experiment{
		ID:          "ablation.kprime",
		Title:       "K′ = K^1.4 correction on vs off (§4.2)",
		Description: "Accuracy impact of the corrected stack exponent on Type A traces.",
		Run:         runAblationKPrime,
	})
	register(Experiment{
		ID:          "ablation.replacement",
		Title:       "Eviction sampling with vs without placing back (Propositions 1 & 2)",
		Description: "Miss-ratio effect of the two sampling variants for small K and large C.",
		Run:         runAblationReplacement,
	})
}

func runSpace(opt Options) (*Result, error) {
	p := mustPreset("msr-proj")
	tr, sum, err := materialize(p, opt, false)
	if err != nil {
		return nil, err
	}
	table := Table{
		Title:   fmt.Sprintf("KRR stack metadata for msr-proj-like (M=%d)", sum.DistinctObjects),
		Columns: []string{"configuration", "tracked objects", "metadata bytes", "bytes/object", "% of 200B/object WSS"},
	}
	for _, rate := range []float64{1, 0.1, 0.01, 0.001} {
		st, _, _ := stackRun(tr, core.KPrimeFor(5), opt.Seed, rate)
		tracked := st.Len()
		meta := st.MemoryOverheadBytes()
		wss := uint64(sum.DistinctObjects) * 200
		perObj := "—"
		if tracked > 0 {
			perObj = fmt.Sprintf("%d", meta/uint64(tracked))
		}
		table.Rows = append(table.Rows, []string{
			fmt.Sprintf("R = %g", rate),
			fmt.Sprintf("%d", tracked),
			fmt.Sprintf("%d", meta),
			perObj,
			fmt.Sprintf("%.4f%%", 100*float64(meta)/float64(wss)),
		})
	}
	return &Result{
		Tables: []Table{table},
		Notes: []string{
			"paper accounting (§5.6): ~68-72 bytes/object assuming a bucketed hash map; the open-addressing position index cuts this to ~28-36 bytes/object (12 B array slot + 12 B index slot at <= 3/4 load); with R = 0.001 and 200-byte objects the metadata is well under 0.036% of the working set",
		},
	}, nil
}

func runAblationKPrime(opt Options) (*Result, error) {
	table := Table{
		Title:   "MAE vs simulated K-LRU with and without the K′ correction",
		Columns: []string{"trace", "K", "K′ = K (uncorrected)", "K′ = K^1.4 (paper)"},
	}
	var notes []string
	for _, name := range []string{"msr-web", "loop", "ycsb-e-1.5"} {
		p := mustPreset(name)
		tr, sum, err := materialize(p, opt, false)
		if err != nil {
			return nil, err
		}
		sizes := evalSizes(sum.DistinctObjects, opt.SimSizes)
		for _, k := range []int{4, 8, 16} {
			truth, err := simKLRU(tr, k, sizes, opt.Seed+uint64(k)*3, opt.Workers)
			if err != nil {
				return nil, err
			}
			_, raw, _ := stackRun(tr, float64(k), opt.Seed, 0)
			_, corrected, _ := stackRun(tr, core.KPrimeFor(k), opt.Seed, 0)
			table.Rows = append(table.Rows, []string{
				name, fmt.Sprintf("%d", k),
				f4(mrc.MAE(raw, truth, sizes)),
				f4(mrc.MAE(corrected, truth, sizes)),
			})
		}
	}
	notes = append(notes,
		"expected shape (§4.2): the correction matters most on recency-ordered (loop/scan) traces, where uncorrected KRR under-evicts old objects")
	return &Result{Tables: []Table{table}, Notes: notes}, nil
}

func runAblationReplacement(opt Options) (*Result, error) {
	p := mustPreset("msr-web")
	tr, sum, err := materialize(p, opt, false)
	if err != nil {
		return nil, err
	}
	sizes := evalSizes(sum.DistinctObjects, opt.SimSizes)
	fig := Figure{Title: "ablation.replacement"}
	var notes []string
	for _, k := range []int{2, 8} {
		with, err := simKLRUVariant(tr, k, sizes, true, opt)
		if err != nil {
			return nil, err
		}
		without, err := simKLRUVariant(tr, k, sizes, false, opt)
		if err != nil {
			return nil, err
		}
		fig.Panels = append(fig.Panels, Panel{
			Title: fmt.Sprintf("K=%d", k), XLabel: "cache size (# objects)", YLabel: "miss ratio",
			Series: []Series{
				curveSeries("with placing back (Prop. 1)", with, sizes),
				curveSeries("without placing back (Prop. 2)", without, sizes),
			},
		})
		notes = append(notes, fmt.Sprintf("K=%d: MAE between variants %.4f", k, mrc.MAE(with, without, sizes)))
	}
	notes = append(notes,
		"expected shape (§3): for small K and large cache the two variants yield approximately the same eviction behaviour")
	return &Result{Figures: []Figure{fig}, Notes: notes}, nil
}
