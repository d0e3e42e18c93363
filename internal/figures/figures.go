package figures

import (
	"fmt"
	"math"

	"heterosw/internal/core"
	"heterosw/internal/device"
	"heterosw/internal/sched"
)

// Series is one labelled curve of a figure.
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// Figure is one reproduced figure or table: labelled series over a common
// x-axis, plus provenance notes comparing against the paper.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
	// PaperNotes records the values the paper states in its text for
	// this experiment, printed beside the reproduced numbers.
	PaperNotes []string
}

// XeonThreadCounts are the thread counts of Figure 3.
func XeonThreadCounts() []int { return []int{1, 2, 4, 8, 16, 32} }

// PhiThreadCounts are the thread counts of Figure 5.
func PhiThreadCounts() []int { return []int{30, 60, 120, 180, 240} }

// Fig3 reproduces "Performance on Intel Xeon with different number of
// threads": six variants, 20-query aggregate GCUPS.
func Fig3(w *Workload) *Figure {
	return threadScalingFigure(w, device.Xeon(), "fig3",
		"Performance on Intel Xeon with different number of threads",
		XeonThreadCounts(),
		[]string{
			"paper: best result 30.4 GCUPS with intrinsic-SP at 32 threads",
			"paper: non-vectorised versions hardly offer performance",
		})
}

// Fig5 reproduces "Performance of the different Intel Xeon Phi algorithm
// variants using a variable number of threads".
func Fig5(w *Workload) *Figure {
	return threadScalingFigure(w, device.Phi(), "fig5",
		"Performance on Intel Xeon Phi with different number of threads",
		PhiThreadCounts(),
		[]string{
			"paper @240T: simd-QP 13.6, simd-SP 14.5, intrinsic-QP 27.1, intrinsic-SP 34.9 GCUPS",
		})
}

func threadScalingFigure(w *Workload, dev *device.Model, id, title string, threads []int, notes []string) *Figure {
	fig := &Figure{
		ID: id, Title: title,
		XLabel: "threads", YLabel: "GCUPS",
		PaperNotes: notes,
	}
	for _, v := range core.Variants() {
		s := Series{Label: v.String()}
		for _, t := range threads {
			g := w.AggregateGCUPS(Config{Dev: dev, Variant: v, Threads: t, Policy: sched.Dynamic})
			s.X = append(s.X, float64(t))
			s.Y = append(s.Y, g)
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}

// Fig4 reproduces "Performance on Intel Xeon with a variable query length"
// at the most favourable 32 threads.
func Fig4(w *Workload) *Figure {
	return queryLengthFigure(w, device.Xeon(), 32, "fig4",
		"Performance on Intel Xeon with variable query length (32 threads)",
		[]string{
			"paper: query length has practically no impact in most experiments",
			"paper: SP versions trend slightly upward, to 25.1 (simd-SP) and 32 (intrinsic-SP) GCUPS",
		})
}

// Fig6 reproduces "Performance of the different Intel Xeon Phi algorithm
// variants using variable query lengths" at 240 threads.
func Fig6(w *Workload) *Figure {
	return queryLengthFigure(w, device.Phi(), 240, "fig6",
		"Performance on Intel Xeon Phi with variable query length (240 threads)",
		[]string{
			"paper: longer queries expose more parallelism and achieve more performance",
			"paper: SP beats QP thanks to consecutive memory accesses",
		})
}

func queryLengthFigure(w *Workload, dev *device.Model, threads int, id, title string, notes []string) *Figure {
	fig := &Figure{
		ID: id, Title: title,
		XLabel: "query length", YLabel: "GCUPS",
		PaperNotes: notes,
	}
	for _, v := range core.Variants() {
		s := Series{Label: v.String()}
		for _, q := range w.Queries() {
			g := w.GCUPS(Config{Dev: dev, Variant: v, Threads: threads, Policy: sched.Dynamic}, q.Length)
			s.X = append(s.X, float64(q.Length))
			s.Y = append(s.Y, g)
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}

// Fig7 reproduces "Performance of blocking and non-blocking Intel Xeon and
// Intel Xeon Phi algorithm variants using variable query lengths"
// (intrinsic-SP, all hardware threads).
func Fig7(w *Workload) *Figure {
	fig := &Figure{
		ID:     "fig7",
		Title:  "Blocking vs non-blocking (intrinsic-SP, all threads)",
		XLabel: "query length", YLabel: "GCUPS",
		PaperNotes: []string{
			"paper: exploiting data locality seriously improves performance on both devices",
			"paper: the improvement is larger on the Phi because its cache is smaller",
		},
	}
	type cfg struct {
		dev       *device.Model
		unblocked bool
		label     string
	}
	for _, c := range []cfg{
		{device.Xeon(), false, "xeon blocking"},
		{device.Xeon(), true, "xeon non-blocking"},
		{device.Phi(), false, "phi blocking"},
		{device.Phi(), true, "phi non-blocking"},
	} {
		s := Series{Label: c.label}
		for _, q := range w.Queries() {
			g := w.GCUPS(Config{
				Dev: c.dev, Variant: core.IntrinsicSP, Unblocked: c.unblocked,
				Policy: sched.Dynamic,
			}, q.Length)
			s.X = append(s.X, float64(q.Length))
			s.Y = append(s.Y, g)
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}

// Fig8Shares are the workload-distribution grid points of Figure 8.
func Fig8Shares() []float64 {
	shares := make([]float64, 0, 21)
	for p := 0; p <= 100; p += 5 {
		shares = append(shares, float64(p)/100)
	}
	return shares
}

// Fig8 reproduces "Performance of the heterogeneous algorithm for
// different workload distributions": intrinsic-SP on both devices, MIC
// share swept from 0 to 100%.
func Fig8(w *Workload) *Figure {
	fig := &Figure{
		ID:     "fig8",
		Title:  "Heterogeneous performance vs workload distribution (intrinsic-SP)",
		XLabel: "% of workload on Xeon Phi", YLabel: "GCUPS",
		PaperNotes: []string{
			"paper: best configuration close to homogeneous (45% Xeon / 55% Phi)",
			"paper: peak 62.6 GCUPS, almost the sum of 30.4 and 34.9",
		},
	}
	s := Series{Label: "hetero intrinsic-SP"}
	for _, share := range Fig8Shares() {
		g := w.HeteroAggregateGCUPS(HeteroConfig{
			CPU:      Config{Dev: device.Xeon(), Variant: core.IntrinsicSP, Policy: sched.Dynamic},
			MIC:      Config{Dev: device.Phi(), Variant: core.IntrinsicSP, Policy: sched.Dynamic},
			MICShare: share,
		})
		s.X = append(s.X, math.Round(share*100))
		s.Y = append(s.Y, g)
	}
	fig.Series = append(fig.Series, s)
	return fig
}

// Efficiency reproduces the parallel-efficiency numbers quoted in Section
// V.C.1: GCUPS(T) / (T * GCUPS(1)) for the intrinsic variants on the Xeon.
func Efficiency(w *Workload) *Figure {
	fig := &Figure{
		ID:     "eff",
		Title:  "Xeon parallel efficiency (text of Section V.C.1)",
		XLabel: "threads", YLabel: "efficiency",
		PaperNotes: []string{
			"paper: intrinsic-SP 99% @4T, 88% @16T, 70% @32T (hyper-threading)",
			"paper: intrinsic-QP 73% @16T",
		},
	}
	for _, v := range []core.Variant{core.IntrinsicSP, core.IntrinsicQP} {
		base := w.AggregateGCUPS(Config{Dev: device.Xeon(), Variant: v, Threads: 1, Policy: sched.Dynamic})
		s := Series{Label: v.String()}
		for _, t := range XeonThreadCounts() {
			g := w.AggregateGCUPS(Config{Dev: device.Xeon(), Variant: v, Threads: t, Policy: sched.Dynamic})
			s.X = append(s.X, float64(t))
			s.Y = append(s.Y, g/(float64(t)*base))
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}

// SchedulePolicies reproduces the Section IV observation that dynamic
// scheduling outperforms static significantly with guided slightly behind
// dynamic, on the length-sorted database (intrinsic-SP, Xeon, 32 threads).
func SchedulePolicies(w *Workload) *Figure {
	fig := &Figure{
		ID:     "sched",
		Title:  "OpenMP scheduling policy ablation (intrinsic-SP, Xeon, 32 threads)",
		XLabel: "policy (0=static 1=dynamic 2=guided)", YLabel: "GCUPS",
		PaperNotes: []string{
			"paper: dynamic outperforms static significantly; difference with guided is slightly minor",
		},
	}
	for _, sorted := range []bool{true, false} {
		label := "sorted db"
		if !sorted {
			label = "unsorted db"
		}
		s := Series{Label: label}
		for i, p := range []sched.Policy{sched.Static, sched.Dynamic, sched.Guided} {
			g := w.AggregateGCUPS(Config{
				Dev: device.Xeon(), Variant: core.IntrinsicSP, Threads: 32,
				Policy: p, Unsorted: !sorted,
			})
			s.X = append(s.X, float64(i))
			s.Y = append(s.Y, g)
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}

// Power extends Figure 8 with the energy view the paper proposes as future
// work (Section V.C.3): GCUPS per watt across the split sweep, using the
// TDP figures the paper quotes.
func Power(w *Workload) *Figure {
	fig := &Figure{
		ID:     "power",
		Title:  "Energy efficiency of the split sweep (GCUPS/W, TDP-based)",
		XLabel: "% of workload on Xeon Phi", YLabel: "GCUPS/W",
		PaperNotes: []string{
			"paper (future work): workload distribution should also weigh power; Xeon ~120 W/chip vs Phi 240 W",
		},
	}
	xeonW := device.Xeon().TDPWatts
	phiW := device.Phi().TDPWatts
	s := Series{Label: "hetero GCUPS/W"}
	for _, share := range Fig8Shares() {
		g := w.HeteroAggregateGCUPS(HeteroConfig{
			CPU:      Config{Dev: device.Xeon(), Variant: core.IntrinsicSP, Policy: sched.Dynamic},
			MIC:      Config{Dev: device.Phi(), Variant: core.IntrinsicSP, Policy: sched.Dynamic},
			MICShare: share,
		})
		watts := xeonW + phiW
		switch share {
		case 0:
			watts = xeonW
		case 1:
			watts = phiW
		}
		s.X = append(s.X, math.Round(share*100))
		s.Y = append(s.Y, g/watts)
	}
	fig.Series = append(fig.Series, s)
	return fig
}

// All returns every reproduced figure, keyed as the harness and CLI name
// them.
func All(w *Workload) []*Figure {
	return []*Figure{
		Fig3(w), Fig4(w), Fig5(w), Fig6(w), Fig7(w), Fig8(w),
		Efficiency(w), SchedulePolicies(w), Power(w), TransferImpact(w),
	}
}

// ByID computes a single figure by its ID ("fig3".."fig8", "eff", "sched",
// "power").
func ByID(w *Workload, id string) (*Figure, error) {
	switch id {
	case "fig3", "3":
		return Fig3(w), nil
	case "fig4", "4":
		return Fig4(w), nil
	case "fig5", "5":
		return Fig5(w), nil
	case "fig6", "6":
		return Fig6(w), nil
	case "fig7", "7":
		return Fig7(w), nil
	case "fig8", "8":
		return Fig8(w), nil
	case "eff":
		return Efficiency(w), nil
	case "sched":
		return SchedulePolicies(w), nil
	case "power":
		return Power(w), nil
	case "transfer":
		return TransferImpact(w), nil
	}
	return nil, fmt.Errorf("figures: unknown figure %q", id)
}

// TransferImpact addresses the paper's closing future-work question —
// "assess the impact of transferences between host and coprocessor" — by
// measuring what fraction of the Phi's time goes to PCIe data movement,
// per query length, under two transfer policies: Algorithm 2's literal
// per-query database shipment, and a resident-database policy that ships
// the database once per 20-query batch.
func TransferImpact(w *Workload) *Figure {
	fig := &Figure{
		ID:     "transfer",
		Title:  "PCIe transfer share of Phi time (future work of Section VI)",
		XLabel: "query length", YLabel: "% of Phi time",
		PaperNotes: []string{
			"paper (future work): evaluating larger databases (UniProt TrEMBL) will assess the impact of transfers",
			"resident-database policy ships the database once per 20-query batch",
		},
	}
	phi := device.Phi()
	cfg := Config{Dev: phi, Variant: core.IntrinsicSP, Threads: 240, Policy: sched.Dynamic}
	perQuery := Series{Label: "db per query"}
	resident := Series{Label: "db resident"}
	queries := len(w.Queries())
	for _, q := range w.Queries() {
		total, _ := w.SimSearch(cfg, q.Length)
		dbIn := phi.TransferSeconds(offloadDatabaseBytes(w))
		other := phi.TransferSeconds(device.QueryBytes(q.Length)) +
			phi.TransferSeconds(device.ScoreBytes(w.Sequences()))
		compute := total - dbIn - other
		perQuery.X = append(perQuery.X, float64(q.Length))
		perQuery.Y = append(perQuery.Y, (dbIn+other)/total*100)
		amortised := dbIn/float64(queries) + other
		resident.X = append(resident.X, float64(q.Length))
		resident.Y = append(resident.Y, amortised/(compute+amortised)*100)
	}
	fig.Series = append(fig.Series, perQuery, resident)
	return fig
}

func offloadDatabaseBytes(w *Workload) int64 {
	return device.DatabaseBytes(w.Residues(), w.Sequences())
}
