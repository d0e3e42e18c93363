// Package sched models the OpenMP worksharing loop at the heart of the
// paper's Algorithm 1 (#pragma omp parallel for over database groups) and
// executes its real counterpart.
//
// The two concerns are deliberately separated:
//
//   - Parallel runs the functional kernels on the host machine with a
//     goroutine worker pool (real parallelism, any order, deterministic
//     results because chunks are independent);
//   - Simulate replays a scheduling policy over the per-chunk simulated
//     costs deterministically, yielding the makespan a given simulated
//     thread count would achieve. This mirrors how the paper's dynamic
//     scheduling outperforms static when chunk costs vary.
//
// Splitting execution from schedule simulation keeps simulated results
// independent of host timing jitter and lets one functional pass be
// replayed under many thread counts and policies.
package sched

import (
	"container/heap"
	"fmt"
	"runtime"
	"sort"
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

// Result summarises a simulated schedule.
type Result struct {
	// Makespan is the finish time of the last thread, in the cost units
	// of the input (simulated cycles).
	Makespan float64
	// PerThread holds each simulated thread's total busy time.
	PerThread []float64
	// Chunks counts dispatched chunks (scheduling events).
	Chunks int
}

// Imbalance returns the relative gap between the busiest thread and the
// mean: 0 for a perfectly balanced schedule.
func (r Result) Imbalance() float64 {
	if len(r.PerThread) == 0 || r.Makespan == 0 {
		return 0
	}
	var sum float64
	for _, v := range r.PerThread {
		sum += v
	}
	mean := sum / float64(len(r.PerThread))
	if mean == 0 {
		return 0
	}
	return r.Makespan/mean - 1
}

type threadHeap struct {
	avail []float64
	id    []int
}

func (h *threadHeap) Len() int { return len(h.avail) }
func (h *threadHeap) Less(i, j int) bool {
	if h.avail[i] != h.avail[j] {
		return h.avail[i] < h.avail[j]
	}
	return h.id[i] < h.id[j] // deterministic tie-break
}
func (h *threadHeap) Swap(i, j int) {
	h.avail[i], h.avail[j] = h.avail[j], h.avail[i]
	h.id[i], h.id[j] = h.id[j], h.id[i]
}
func (h *threadHeap) Push(x any) {
	panic("sched: fixed-size heap")
}
func (h *threadHeap) Pop() any {
	panic("sched: fixed-size heap")
}

// Simulate schedules n = len(costs) iterations with the given per-iteration
// costs onto `threads` simulated threads, with OpenMP's default chunk of
// one iteration: Dynamic dispatches one iteration at a time, Guided never
// dispatches fewer than one, and Static uses one contiguous block per
// thread. dispatchOverhead is added to a thread's busy time per dispatched
// chunk, modelling the cost of the worksharing construct (this is what
// makes dynamic,1 more expensive than guided on balanced loads).
//
// Dynamic dispatches iterations heaviest-first (longest-processing-time
// list scheduling): self-scheduled Smith-Waterman engines iterate their
// length-sorted database from the long end for exactly this reason — it
// eliminates the end-of-loop tail where a thread starts a heavy iteration
// just as the queue drains. Static and Guided consume the iteration space
// in order, as the OpenMP constructs do.
func Simulate(costs []float64, threads int, policy Policy, dispatchOverhead float64) Result {
	n := len(costs)
	if threads < 1 {
		threads = 1
	}
	res := Result{PerThread: make([]float64, threads)}
	if n == 0 {
		return res
	}

	// Build the chunk cost list: contiguous iteration runs per policy.
	// Chunk identity does not affect the makespan, so only costs are kept.
	var chunks []float64
	addChunk := func(start, size int) {
		var c float64
		for i := start; i < start+size && i < n; i++ {
			c += costs[i]
		}
		chunks = append(chunks, c)
	}
	switch policy {
	case Static:
		block := (n + threads - 1) / threads
		for start := 0; start < n; start += block {
			size := block
			if start+size > n {
				size = n - start
			}
			addChunk(start, size)
		}
	case Dynamic:
		chunks = append(chunks, costs...)
		// Heaviest-first list scheduling.
		sort.Sort(sort.Reverse(sort.Float64Slice(chunks)))
	case Guided:
		next, remaining := 0, n
		for next < n {
			size := max(remaining/(2*threads), 1)
			addChunk(next, size)
			next += size
			remaining -= size
		}
	default:
		panic(fmt.Sprintf("sched: unknown policy %d", int(policy)))
	}
	res.Chunks = len(chunks)

	if policy == Static {
		// One block per thread, in order.
		for t, c := range chunks {
			res.PerThread[t] = c + dispatchOverhead
		}
	} else {
		// List scheduling: each chunk goes to the earliest-available
		// thread.
		h := &threadHeap{avail: make([]float64, threads), id: make([]int, threads)}
		for t := range h.id {
			h.id[t] = t
		}
		heap.Init(h)
		for _, c := range chunks {
			t := h.id[0]
			res.PerThread[t] += c + dispatchOverhead
			h.avail[0] = res.PerThread[t]
			heap.Fix(h, 0)
		}
	}

	for _, v := range res.PerThread {
		if v > res.Makespan {
			res.Makespan = v
		}
	}
	return res
}

// DeviceSchedule is the outcome of scheduling device-level chunks onto a
// set of heterogeneous workers (compute devices), the cluster analogue of
// Result for the in-device worksharing loop.
type DeviceSchedule struct {
	// Assign maps each chunk (in consumption order) to the worker that
	// claimed it.
	Assign []int
	// Busy is each worker's finish time, including its start offset.
	Busy []float64
	// Chunks counts the chunks each worker claimed.
	Chunks []int
	// Makespan is the latest finish time across workers.
	Makespan float64
}

// ScheduleChunks replays a device-level dynamic chunk queue over
// heterogeneous workers: chunks are consumed in the given order and each
// goes to the worker with the earliest predicted finish for it
// (busy[w] + cost(chunk, w), ties to the lowest worker index). This is the
// cost-aware analogue of the self-scheduling the paper's dynamic OpenMP
// policy performs inside one device, lifted to the cluster level where
// workers differ in speed: a fast device keeps stealing chunks while a
// slow one is still busy, so the queue drains with a balanced tail.
//
// start[w] seeds worker w's busy time (parallel-region launch, one-time
// query transfer for offload devices); nil means all zeros. The function
// is deterministic: identical inputs produce identical schedules.
func ScheduleChunks(n, workers int, start []float64, cost func(chunk, worker int) float64) DeviceSchedule {
	if workers < 1 {
		workers = 1
	}
	s := DeviceSchedule{
		Assign: make([]int, n),
		Busy:   make([]float64, workers),
		Chunks: make([]int, workers),
	}
	for w := 0; w < workers && w < len(start); w++ {
		s.Busy[w] = start[w]
	}
	for c := 0; c < n; c++ {
		best, bestFinish := 0, s.Busy[0]+cost(c, 0)
		for w := 1; w < workers; w++ {
			if f := s.Busy[w] + cost(c, w); f < bestFinish {
				best, bestFinish = w, f
			}
		}
		s.Assign[c] = best
		s.Busy[best] = bestFinish
		s.Chunks[best]++
	}
	for _, b := range s.Busy {
		if b > s.Makespan {
			s.Makespan = b
		}
	}
	return s
}

// ChunkSizes partitions a total workload (in any additive unit — the
// dispatcher uses residues) into device-level chunk sizes, mirroring the
// OpenMP chunking rules at cluster granularity. Dynamic yields equal
// chunks of size chunk; Guided yields geometrically shrinking chunks of
// remaining/(2*workers), floored at chunk, so the queue starts with large
// grants and finishes with small ones that fill the load-balancing tail.
// Static returns one equal block per worker (the degenerate distribution
// the cluster dispatcher's static path expresses through residue shares
// instead).
func ChunkSizes(policy Policy, total int64, workers int, chunk int64) []int64 {
	if total <= 0 {
		return nil
	}
	if workers < 1 {
		workers = 1
	}
	if chunk < 1 {
		chunk = 1
	}
	var sizes []int64
	switch policy {
	case Static:
		block := (total + int64(workers) - 1) / int64(workers)
		for rem := total; rem > 0; rem -= block {
			s := block
			if s > rem {
				s = rem
			}
			sizes = append(sizes, s)
		}
	case Dynamic:
		for rem := total; rem > 0; rem -= chunk {
			s := chunk
			if s > rem {
				s = rem
			}
			sizes = append(sizes, s)
		}
	case Guided:
		for rem := total; rem > 0; {
			s := rem / int64(2*workers)
			if s < chunk {
				s = chunk
			}
			if s > rem {
				s = rem
			}
			sizes = append(sizes, s)
			rem -= s
		}
	default:
		panic(fmt.Sprintf("sched: unknown policy %d", int(policy)))
	}
	return sizes
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
