// Scaling studies the two levers the paper identifies as essential for
// heterogeneous Smith-Waterman throughput — thread-level parallelism and
// the OpenMP scheduling policy — and its six kernel variants on the device
// models (Database.Simulate), then measures on this host the one lever that
// is a property of the data rather than of the device: length-sorting the
// database (Cluster.Search, wall clock).
//
// Run with: go run ./examples/scaling [-scale 0.005]
package main

import (
	"flag"
	"fmt"
	"log"

	"heterosw"
)

func main() {
	scale := flag.Float64("scale", 0.005, "database scale relative to Swiss-Prot")
	flag.Parse()

	db, queries := heterosw.SyntheticSwissProt(*scale, true)
	query := queries[10] // 1500 residues
	fmt.Println("database:", db)
	fmt.Printf("query:    %s (%d aa)\n", query.ID(), query.Len())

	simulate := func(opt heterosw.Options) float64 {
		plan, err := db.Simulate(query.Len(), opt)
		if err != nil {
			log.Fatal(err)
		}
		return plan.GCUPS
	}

	fmt.Println("\n-- thread scaling (intrinsic-SP, dynamic schedule, simulated devices) --")
	fmt.Printf("%8s %16s %16s\n", "threads", "xeon GCUPS", "phi GCUPS")
	phiThreads := map[int]int{1: 30, 2: 60, 4: 120, 8: 180, 16: 240, 32: 240}
	for _, t := range []int{1, 2, 4, 8, 16, 32} {
		xeon := simulate(heterosw.Options{Threads: t})
		phi := simulate(heterosw.Options{Device: heterosw.DevicePhi, Threads: phiThreads[t]})
		fmt.Printf("%8d %16.2f %11.2f@%dT\n", t, xeon, phi, phiThreads[t])
	}

	fmt.Println("\n-- scheduling policy (intrinsic-SP, Xeon 32T, simulated) --")
	for _, policy := range []string{"static", "dynamic", "guided"} {
		fmt.Printf("%10s %14.2f\n", policy, simulate(heterosw.Options{Schedule: policy}))
	}
	fmt.Println("paper: dynamic outperforms static significantly; guided is slightly behind dynamic.")

	fmt.Println("\n-- kernel variants (Xeon 32T vs Phi 240T, simulated GCUPS) --")
	fmt.Printf("%14s %12s %12s\n", "variant", "xeon", "phi")
	for _, v := range heterosw.Variants() {
		fmt.Printf("%14s %12.2f %12.2f\n", v,
			simulate(heterosw.Options{Variant: v}),
			simulate(heterosw.Options{Variant: v, Device: heterosw.DevicePhi}))
	}
	fmt.Println("every search on the host runs one kernel, the 8/16/32-bit ladder; the variants are priced, not run.")

	// Pre-sorting is a property of the packing, so the host shows it too.
	seqs := make([]heterosw.Sequence, db.Len())
	for i := range seqs {
		seqs[i] = db.Seq(i)
	}
	unsortedDB, err := heterosw.NewDatabaseUnsorted(seqs)
	if err != nil {
		log.Fatal(err)
	}
	search := func(db *heterosw.Database) *heterosw.ClusterResult {
		cl, err := heterosw.NewCluster(db, heterosw.ClusterOptions{})
		if err != nil {
			log.Fatal(err)
		}
		if _, err := cl.Search(query); err != nil { // pack the lane groups
			log.Fatal(err)
		}
		res, err := cl.Search(query)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	sorted, unsorted := search(db), search(unsortedDB)
	fmt.Printf("\n-- length-sorted database %.3f host wall GCUPS, unsorted %.3f --\n", sorted.WallGCUPS, unsorted.WallGCUPS)
	fmt.Println("pre-sorting the database by length keeps lane groups tight and the schedule balanced.")
}
