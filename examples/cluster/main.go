// Cluster demonstrates the N-device generalisation of the paper's
// Algorithm 2 on the device model — a roster of one Xeon host and two Xeon
// Phi coprocessors, priced under the static residue split and under the
// dynamic device-level chunk queue the paper names as future work — then
// runs a batch of requests and a set of concurrent requests on the host.
//
// Run with: go run ./examples/cluster [-scale 0.003]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"sync"

	"heterosw"
)

func main() {
	scale := flag.Float64("scale", 0.003, "database scale relative to Swiss-Prot (0.003 ~ 1.6k sequences)")
	flag.Parse()

	db, queries := heterosw.SyntheticSwissProt(*scale, true)
	fmt.Println("database:", db)
	query := queries[9] // the 1000-residue benchmark query
	fmt.Printf("query:    %s (%d aa)\n\n", query.ID(), query.Len())

	roster := []heterosw.DeviceKind{heterosw.DeviceXeon, heterosw.DevicePhi, heterosw.DevicePhi}

	// One plan per distribution strategy: nothing runs, the device model
	// prices the roster over the database's sequence lengths.
	for _, dist := range []string{"static", "dynamic", "guided"} {
		cl, err := heterosw.NewCluster(db, heterosw.ClusterOptions{Devices: roster, Dist: dist})
		if err != nil {
			log.Fatal(err)
		}
		plan, err := cl.Plan(query.Len())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s %8.2f simulated GCUPS, makespan %.4fs\n", dist, plan.GCUPS, plan.Seconds)
		for _, d := range plan.Devices {
			fmt.Printf("  %-8s %5.1f%% of residues, %2d chunk(s), %8.4fs busy\n",
				d.Name, d.Share*100, d.Chunks, d.Seconds)
		}
	}

	// A batch of requests, on the host: they run one after another, every
	// query on the lane packings the cluster built once.
	ctx := context.Background()
	cl, err := heterosw.NewCluster(db, heterosw.ClusterOptions{Devices: roster, Dist: "dynamic"})
	if err != nil {
		log.Fatal(err)
	}
	// Every request asks for its best hit alone.
	top1 := heterosw.ReportOptions{TopK: 1}
	batch := make([]heterosw.Request, 5)
	for i, q := range queries[:5] {
		batch[i] = heterosw.Request{Query: q, Report: top1}
	}
	results, err := cl.DoBatch(ctx, batch)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nbatch of 5 queries (shared lane packings):")
	for i, r := range results {
		q := batch[i].Query
		fmt.Printf("  %-12s (%4d aa) top hit %-12s score %5d\n",
			q.ID(), q.Len(), r.Hits[0].ID, r.Hits[0].Score)
	}

	// Concurrent requests: one Do per goroutine, sharing the cluster's
	// in-flight slots; each result lands in its request's slot, so they
	// print in request order whatever order they complete in.
	concurrent := queries[5:8]
	answers := make([]*heterosw.Result, len(concurrent))
	errs := make([]error, len(concurrent))
	var wg sync.WaitGroup
	for i, q := range concurrent {
		wg.Add(1)
		go func() {
			defer wg.Done()
			answers[i], errs[i] = cl.Do(ctx, heterosw.Request{Query: q, Report: top1})
		}()
	}
	wg.Wait()
	fmt.Println("\nconcurrent requests:")
	for i, r := range answers {
		if errs[i] != nil {
			log.Fatal(errs[i])
		}
		fmt.Printf("  #%d %-12s -> top hit %-12s (%.2f GCUPS wall-clock)\n",
			i, concurrent[i].ID(), r.Hits[0].ID, r.WallGCUPS)
	}
}
