// Scaling prices the paper's six kernel variants on the Xeon and Xeon Phi
// device models (Cluster.Plan over a one-device roster), then measures on
// this host the one lever that is a property of the data rather than of
// the device: length-sorting the database (Cluster.Search, wall clock).
// The paper's other two levers, thread counts and the OpenMP scheduling
// policy, are swbench's figures: go run ./cmd/swbench -fig fig3,fig5,sched.
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

	simulate := func(variant string, device heterosw.DeviceKind) float64 {
		cl, err := heterosw.NewCluster(db, heterosw.ClusterOptions{
			Options: heterosw.Options{Variant: variant},
			Devices: []heterosw.DeviceKind{device},
		})
		if err != nil {
			log.Fatal(err)
		}
		plan, err := cl.Plan(query.Len())
		if err != nil {
			log.Fatal(err)
		}
		return plan.GCUPS
	}

	fmt.Println("\n-- kernel variants (Xeon 32T vs Phi 240T, simulated GCUPS) --")
	fmt.Printf("%14s %12s %12s\n", "variant", "xeon", "phi")
	for _, v := range heterosw.Variants() {
		fmt.Printf("%14s %12.2f %12.2f\n", v,
			simulate(v, heterosw.DeviceXeon),
			simulate(v, heterosw.DevicePhi))
	}
	fmt.Println("every search on the host runs one kernel, the 8/16/32-bit ladder; the variants are priced, not run.")
	fmt.Println("thread and scheduling sweeps: go run ./cmd/swbench -fig fig3,fig5,sched")

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
