// Scaling prices the paper's six kernel variants on the Xeon and Xeon Phi
// device models (Cluster.Plan over a one-device roster). The paper's
// thread-count and OpenMP scheduling sweeps are swbench's figures:
// go run ./cmd/swbench -fig fig3,fig5,sched.
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
}
