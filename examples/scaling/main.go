// Scaling studies the two levers the paper identifies as essential for
// heterogeneous Smith-Waterman throughput — thread-level parallelism and
// the OpenMP scheduling policy — on the device models (Database.Simulate),
// with the host's wall-clock rate of the same kernels beside them.
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

	fmt.Println("\n-- kernel variants (Xeon 32T vs Phi 240T simulated; this host measured) --")
	fmt.Printf("%14s %12s %12s %16s\n", "variant", "xeon", "phi", "host wall GCUPS")
	for _, v := range heterosw.Variants() {
		res, err := db.Search(query, heterosw.Options{Variant: v})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%14s %12.2f %12.2f %16.3f\n", v,
			simulate(heterosw.Options{Variant: v}),
			simulate(heterosw.Options{Variant: v, Device: heterosw.DevicePhi}), res.WallGCUPS)
	}

	// Pre-sorting is a property of the packing, so the host shows it too.
	seqs := make([]heterosw.Sequence, db.Len())
	for i := range seqs {
		seqs[i] = db.Seq(i)
	}
	unsortedDB, err := heterosw.NewDatabaseUnsorted(seqs)
	if err != nil {
		log.Fatal(err)
	}
	sorted, err := db.Search(query, heterosw.Options{})
	if err != nil {
		log.Fatal(err)
	}
	unsorted, err := unsortedDB.Search(query, heterosw.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n-- length-sorted database %.3f host wall GCUPS, unsorted %.3f --\n", sorted.WallGCUPS, unsorted.WallGCUPS)
	fmt.Println("pre-sorting the database by length keeps lane groups tight and the schedule balanced.")
}
