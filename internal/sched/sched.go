// Package sched names the OpenMP worksharing policies of the paper's
// Algorithm 1 (#pragma omp parallel for over database groups) and runs the
// host's real counterpart of that loop: Parallel, a goroutine worker pool
// with any iteration order and deterministic results because chunks are
// independent. Replaying a policy over simulated costs is the device
// model's job (internal/model's Simulate), kept apart so simulated results
// never depend on host timing jitter.
package sched

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Policy is an OpenMP loop scheduling policy.
type Policy int

const (
	// Static divides iterations into equal contiguous blocks, one per
	// thread (OpenMP schedule(static)).
	Static Policy = iota
	// Dynamic hands out fixed-size chunks to threads as they go idle
	// (OpenMP schedule(dynamic, chunk)).
	Dynamic
	// Guided hands out geometrically shrinking chunks, proportional to
	// the remaining iterations per thread (OpenMP schedule(guided)).
	Guided
)

// String returns the OpenMP name of the policy.
func (p Policy) String() string {
	switch p {
	case Static:
		return "static"
	case Dynamic:
		return "dynamic"
	case Guided:
		return "guided"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// Parallel executes fn(i, worker) for every i in [0, n) using a pool of
// real goroutines. worker identifies the executing worker in [0, workers),
// so callers can hand each worker private scratch buffers. workers <= 0
// selects GOMAXPROCS. The iteration order is unspecified; fn must be safe
// to call concurrently for distinct i.
func Parallel(n, workers int, fn func(i, worker int)) {
	if n == 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i, 0)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i, worker)
			}
		}(w)
	}
	wg.Wait()
}
