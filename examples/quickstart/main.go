// Quickstart: build a small synthetic protein database and run one
// two-phase aligned search — the vectorised score pass selects the top
// hits, the traceback phase decorates them with coordinates, CIGARs and
// identities, and a fitted null model adds bit scores and E-values — all
// from a single Cluster.Do call.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"heterosw"
)

func main() {
	// A 1/1000-scale Swiss-Prot stand-in (~540 sequences) with the
	// paper's 20 benchmark queries planted inside it.
	db, queries := heterosw.SyntheticSwissProt(0.001, true)
	fmt.Println("database:", db)

	query := queries[2] // a 222-residue query, quick to align everywhere
	fmt.Printf("query:    %s (%d aa)\n\n", query.ID(), query.Len())

	// The cluster searches on this host. Its options also describe a
	// modelled roster — by default the paper's Xeon+Phi pair, here under
	// the dynamic work queue — which Plan prices without running anything.
	cl, err := heterosw.NewCluster(db, heterosw.ClusterOptions{Dist: "dynamic"})
	if err != nil {
		log.Fatal(err)
	}

	// One request: score pass + tracebacks over the top 5 hits + E-values.
	res, err := cl.Do(context.Background(), heterosw.Request{
		Query: query,
		Report: heterosw.ReportOptions{
			Alignments: true,
			EValues:    true,
			TopK:       5,
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	plan, err := cl.Plan(query.Len())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%.3f GCUPS wall-clock on this host; the device model prices the same search at %.2f GCUPS on %v\n\n",
		res.WallGCUPS, plan.GCUPS, cl.Devices())
	for i, h := range res.Hits {
		fmt.Printf("  %d. %-12s score %5d  bits %6.1f  E-value %.2g  CIGAR %s\n",
			i+1, h.ID, h.Score,
			h.Significance.BitScore, h.Significance.EValue, h.Alignment.CIGAR)
	}

	// The same decorated result renders as a BLAST-style report.
	fmt.Println()
	if err := heterosw.WriteFormat(os.Stdout, "blast", query, db, res, 60); err != nil {
		log.Fatal(err)
	}
}
