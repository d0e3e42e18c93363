// Command swbench regenerates every figure and in-text table of the
// paper's evaluation (Section V) from the simulated heterogeneous system,
// and compares cluster workload-distribution strategies over arbitrary
// device rosters.
//
// Usage:
//
//	swbench [-fig all|fig3|fig4|fig5|fig6|fig7|fig8|eff|sched|power|transfer]
//	        [-scale 1.0] [-csv] [-summary] [-o out.txt]
//	swbench -devices xeon,phi,phi -dist dynamic [-scale 1.0]
//	swbench -devices xeon,phi -db db.swdb
//
// By default the full 541,561-sequence synthetic Swiss-Prot is simulated
// (fast: the device models consume shape information only; see the
// README's "The device model: pricing a roster").
// GCUPS values are simulated-device throughput. This is where a roster is
// priced: swsearch and swserve run on the host and report wall-clock.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"heterosw/internal/alphabet"
	"heterosw/internal/core"
	"heterosw/internal/datagen"
	"heterosw/internal/device"
	"heterosw/internal/model"
	"heterosw/internal/sched"
	"heterosw/internal/seqdb/index"
	"heterosw/internal/vec"
)

func main() {
	var (
		fig     = flag.String("fig", "all", "figure to regenerate: all, fig3..fig8, eff, sched, power, transfer")
		scale   = flag.Float64("scale", 1.0, "database scale relative to Swiss-Prot 2013_11 (541,561 sequences)")
		csv     = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		summary = flag.Bool("summary", false, "one line per figure (best value per series)")
		outPath = flag.String("o", "", "write output to a file instead of stdout")
		devices = flag.String("devices", "", "cluster mode: comma-separated roster (e.g. xeon,phi,phi)")
		dbPath  = flag.String("db", "", "cluster mode: plan over this database (FASTA or .swdb) instead of the synthetic corpus")
		dist    = flag.String("dist", "", "cluster mode: compare only this distribution (default: all)")
		qlen    = flag.Int("qlen", 1000, "cluster mode: query length")
		variant = flag.String("variant", "intrinsic-SP", "cluster mode: kernel variant (the intrinsic ones plan the 8/16/32-bit ladder's byte lanes)")
	)
	flag.Parse()

	var out io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		out = f
	}

	if *devices != "" {
		if *csv || *summary {
			fatal(fmt.Errorf("-csv and -summary are not supported with -devices (cluster mode prints one fixed table)"))
		}
		if err := clusterBench(out, *devices, *dist, *variant, *dbPath, *scale, *qlen); err != nil {
			fatal(err)
		}
		return
	}
	if *dbPath != "" {
		fatal(fmt.Errorf("-db needs cluster mode (-devices); the figures always use the synthetic corpus"))
	}

	start := time.Now()
	w := model.NewWorkload(*scale)
	fmt.Fprintf(out, "# swbench: %s\n", w)
	fmt.Fprintf(out, "# devices: Xeon (16c/32t, 256-bit) + Xeon Phi (60c/240t, 512-bit); BLOSUM62, gaps 10/2\n")
	fmt.Fprintf(out, "# vec backend: %s\n", vec.Info())
	fmt.Fprintf(out, "# GCUPS below are simulated-device throughput (see the README's \"Interpreting GCUPS\")\n\n")

	var figs []*model.Figure
	if *fig == "all" {
		figs = model.All(w)
	} else {
		for _, id := range strings.Split(*fig, ",") {
			f, err := model.ByID(w, strings.TrimSpace(id))
			if err != nil {
				fatal(err)
			}
			figs = append(figs, f)
		}
	}
	for _, f := range figs {
		var err error
		switch {
		case *summary:
			err = model.Summary(out, f)
		case *csv:
			err = model.CSV(out, f)
		default:
			err = model.Table(out, f)
		}
		if err != nil {
			fatal(err)
		}
	}
	fmt.Fprintf(out, "# generated in %v\n", time.Since(start).Round(time.Millisecond))
}

// clusterBench compares workload-distribution strategies for a device
// roster at shape level: the full database is planned, never executed, so
// the comparison runs in milliseconds at any scale.
func clusterBench(out io.Writer, roster, only, variant, dbPath string, scale float64, queryLen int) error {
	models := device.Devices()
	var devices []*device.Model
	var names []string
	for i, d := range strings.Split(roster, ",") {
		d = strings.TrimSpace(d)
		m, ok := models[d]
		if !ok {
			return fmt.Errorf("unknown device %q (have xeon, phi)", d)
		}
		devices = append(devices, m)
		names = append(names, fmt.Sprintf("%s#%d", d, i))
	}
	var lengths []int
	if dbPath != "" {
		// A real database (FASTA or preprocessed .swdb, sniffed by magic);
		// planning only needs its length distribution.
		db, _, err := index.LoadDatabase(dbPath, alphabet.Protein)
		if err != nil {
			return err
		}
		lengths = db.OrderLengths()
	} else {
		lengths = datagen.Lengths(datagen.SwissProtConfig(scale))
	}
	var residues int64
	for _, l := range lengths {
		residues += int64(l)
	}
	cells := float64(queryLen) * float64(residues)

	dists := []core.Distribution{core.DistStatic, core.DistDynamic, core.DistGuided}
	if only != "" {
		d, err := core.ParseDistribution(only)
		if err != nil {
			return err
		}
		dists = []core.Distribution{d}
	}
	v, err := core.ParseVariant(variant)
	if err != nil {
		return err
	}
	opt := core.DispatchOptions{Search: core.SearchOptions{
		Params:   core.Params{Variant: v, GapOpen: 10, GapExtend: 2, Blocked: true},
		Schedule: sched.Dynamic,
	}}

	fmt.Fprintf(out, "# cluster: %s over %d sequences (%d residues), query %d aa, variant %s\n",
		roster, len(lengths), residues, queryLen, v)
	fmt.Fprintf(out, "# static shares are model-balanced (OptimalShares); GCUPS is simulated throughput\n\n")
	fmt.Fprintf(out, "%-8s %12s %10s", "dist", "makespan s", "GCUPS")
	for _, n := range names {
		fmt.Fprintf(out, " %16s", n)
	}
	fmt.Fprintln(out)
	for _, d := range dists {
		o := opt
		o.Dist = d
		p, err := model.PlanLengths(lengths, queryLen, devices, o)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%-8s %12.4f %10.2f", d, p.Makespan, cells/p.Makespan/1e9)
		for i := range devices {
			fmt.Fprintf(out, "  %5.1f%% (%2d chk)", p.Shares[i]*100, p.Chunks[i])
		}
		fmt.Fprintln(out)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "swbench:", err)
	os.Exit(1)
}
