package model

import (
	"fmt"
	"sort"

	"heterosw/internal/core"
	"heterosw/internal/device"
	"heterosw/internal/sched"
	"heterosw/internal/seqdb"
)

// The planner prices a search on modelled devices without running it: from
// sequence lengths alone it predicts what one device (estimateSeconds) or a
// roster under a workload distribution (PlanLengths) would take. It prices
// the serving ladder's lanes (core.Params.FirstRung), so its numbers are
// what the engine would do on the modelled hardware; nothing on the
// execution path calls it. swbench, the calibration tests and the public
// Cluster.Plan do. A roster is a list of device models, each priced at its
// maximum thread count with a scheduling chunk of one sequence group.

// validateRoster rejects an empty roster and any device the cost models
// cannot price.
func validateRoster(roster []*device.Model) error {
	if len(roster) == 0 {
		return fmt.Errorf("model: empty device roster")
	}
	for i, m := range roster {
		if m == nil {
			return fmt.Errorf("model: device %d: nil model", i)
		}
		if err := m.Validate(); err != nil {
			return fmt.Errorf("model: device %d: %w", i, err)
		}
	}
	return nil
}

// chunksPerDevice sets the default dynamic chunk granularity: enough
// chunks that the end-of-queue imbalance is a small fraction of the whole
// search, few enough that per-chunk dispatch and PCIe latency stay noise.
const chunksPerDevice = 24

// servingCosts packs the lengths as Engine.Search would on dev — the
// serving ladder's first rung (core.Params.FirstRung) and its long-sequence
// routing — and prices every shape, for the static share estimator
// (estimateComputeSeconds) and the dynamic chunk coster (chunkSeconds)
// alike, so the two distribution strategies can never drift apart. With
// byte lanes the estimate optimistically assumes no escalation recomputes;
// over a realistic protein database the saturating tail is negligible.
func servingCosts(lengths []int, m int, dev *device.Model, opt core.SearchOptions) (costs []float64, threads int) {
	threads = dev.MaxThreads()
	class := opt.Params.KernelClass()
	lanes, eightBit := opt.Params.FirstRung(dev)
	class.EightBit = eightBit
	longThr := opt.LongSeqThreshold
	switch {
	case longThr < 0 || class.Scalar:
		longThr = 0
	case longThr == 0:
		longThr = core.DefaultLongSeqThreshold
	}
	shapes := seqdb.PackShapes(lengths, lanes, true, longThr)
	return costShapes(nil, shapes, m, dev, class, lanes, threads), threads
}

// estimateComputeSeconds predicts the parallel region and offload time of
// a search over the given sequence lengths on one device — everything but
// the final host-side score sort, which cluster planning charges once over
// the merged list rather than per shard (see Plan).
func estimateComputeSeconds(lengths []int, m int, dev *device.Model, opt core.SearchOptions) float64 {
	if len(lengths) == 0 || m == 0 {
		return 0
	}
	costs, threads := servingCosts(lengths, m, dev, opt)
	return replaySeconds(costs, m, sumLengths(lengths), len(lengths), dev, threads, opt.Schedule)
}

// estimateSeconds predicts the completion time of a search (Algorithm 1)
// over a database with the given sequence lengths on one device: the lane
// packing and long-sequence routing Engine.Search would apply, priced group
// by group, replayed under the device's loop schedule, plus offload
// transfers and the host-side sort.
func estimateSeconds(lengths []int, m int, dev *device.Model, opt core.SearchOptions) float64 {
	if len(lengths) == 0 || m == 0 {
		return 0
	}
	return estimateComputeSeconds(lengths, m, dev, opt) + device.HostSortSeconds(len(lengths))
}

// OptimalShares computes a model-driven static workload distribution over
// an arbitrary device roster — the N-way generalisation of the "other
// workload distribution strategies" the paper proposes as future work.
// Every device is simulated over the whole database; since completion
// time is close to linear in the residue share, balanced shares are
// proportional to each device's predicted throughput (1 / t_i). The
// returned shares are normalised to sum to 1; equal shares are returned
// when no prediction is possible (empty database, zero query length).
func OptimalShares(lengths []int, queryLen int, opt core.SearchOptions, roster []*device.Model) []float64 {
	n := len(roster)
	shares := make([]float64, n)
	if n == 0 {
		return shares
	}
	equal := func() []float64 {
		for i := range shares {
			shares[i] = 1 / float64(n)
		}
		return shares
	}
	if len(lengths) == 0 || queryLen == 0 {
		return equal()
	}
	var sum float64
	for i, dev := range roster {
		t := estimateSeconds(lengths, queryLen, dev, opt)
		if t <= 0 {
			return equal()
		}
		shares[i] = 1 / t
		sum += shares[i]
	}
	for i := range shares {
		shares[i] /= sum
	}
	return shares
}

// validateShares checks an explicit static share vector against a roster
// size.
func validateShares(shares []float64, devices int) error {
	if len(shares) != devices {
		return fmt.Errorf("model: %d shares for %d devices", len(shares), devices)
	}
	var sum float64
	for i, s := range shares {
		if s < 0 {
			return fmt.Errorf("model: negative share %v for device %d", s, i)
		}
		sum += s
	}
	if sum == 0 {
		return fmt.Errorf("model: shares sum to zero")
	}
	return nil
}

// chunkWindows computes device-level chunk boundaries over a
// length-sorted processing order: windows of consecutive sequences whose
// residues accumulate to the chunkSizes targets. Dynamic chunks are
// returned heaviest-first (the reversed, longest-sequences-first order, as
// Simulate's in-device dynamic policy dispatches), Guided chunks in
// front-to-back order so the shrinking grants end with the smallest. The
// target granularity is roughly chunksPerDevice chunks per worker.
func chunkWindows(lengths []int, dist core.Distribution, workers int) [][2]int {
	total := sumLengths(lengths)
	target := total / int64(chunksPerDevice*workers)
	if target < 1 {
		target = 1
	}
	policy := sched.Dynamic
	if dist == core.DistGuided {
		policy = sched.Guided
	}
	sizes := chunkSizes(policy, total, workers, target)
	var windows [][2]int
	start := 0
	for _, size := range sizes {
		if start >= len(lengths) {
			break
		}
		end := start
		var got int64
		for end < len(lengths) && got < size {
			got += int64(lengths[end])
			end++
		}
		windows = append(windows, [2]int{start, end})
		start = end
	}
	// Residue targets can under-run when single sequences exceed the
	// chunk size; sweep up the remainder as one final chunk.
	if start < len(lengths) {
		windows = append(windows, [2]int{start, len(lengths)})
	}
	if policy == sched.Dynamic {
		for i, j := 0, len(windows)-1; i < j; i, j = i+1, j-1 {
			windows[i], windows[j] = windows[j], windows[i]
		}
	}
	return windows
}

// Plan is a predicted cluster schedule: per-device busy seconds and the
// completion time a distribution would achieve, computed from the device
// cost models alone (no kernels run). It powers distribution-strategy
// comparisons at full database scale, where running the roster is not
// possible but the shape-level simulation is exact.
type Plan struct {
	// Dist is the planned distribution.
	Dist core.Distribution
	// Shares is the residue fraction scheduled onto each device.
	Shares []float64
	// Seconds is each device's predicted busy time, including region
	// launch and PCIe transfers for offload devices.
	Seconds []float64
	// Chunks is the number of work grants per device (the shard counts as
	// one under the static distribution).
	Chunks []int
	// Makespan is the predicted completion time: the slowest device plus
	// the final host-side sort of the merged score list. Device times
	// exclude per-shard/per-chunk sorting and the final sort is charged
	// identically to every distribution, so makespans are directly
	// comparable across strategies.
	Makespan float64
}

// planStaticLengths prices one static split: per-part compute seconds,
// realised residue shares, and the final host-side sort of the merged
// list.
func planStaticLengths(parts [][]int, queryLen int, roster []*device.Model, opt core.DispatchOptions, dbLen int) *Plan {
	p := &Plan{
		Dist:    core.DistStatic,
		Shares:  make([]float64, len(roster)),
		Seconds: make([]float64, len(roster)),
		Chunks:  make([]int, len(roster)),
	}
	var total int64
	residues := make([]int64, len(parts))
	for i, part := range parts {
		residues[i] = sumLengths(part)
		total += residues[i]
	}
	for i, dev := range roster {
		if total > 0 {
			p.Shares[i] = float64(residues[i]) / float64(total)
		}
		if len(parts[i]) == 0 {
			continue
		}
		p.Seconds[i] = estimateComputeSeconds(parts[i], queryLen, dev, opt.Search)
		p.Chunks[i] = 1
		if p.Seconds[i] > p.Makespan {
			p.Makespan = p.Seconds[i]
		}
	}
	p.Makespan += device.HostSortSeconds(dbLen)
	return p
}

// planChunkLengths replays the device-level chunk queue deterministically
// over model-predicted costs: chunks are consumed in queue order and each
// goes to the device predicted to finish it first. Device busy times are
// seeded with the one-time region launch and query transfer; every chunk
// charges its own database shipment and score return for offload devices,
// which is the true cost a dynamic distribution pays for flexibility. The
// final host-side merge sort of the full score list closes the makespan.
func planChunkLengths(chunkLens [][]int, queryLen int, roster []*device.Model, opt core.DispatchOptions, dbLen int) *Plan {
	n := len(roster)
	costs := make([][]float64, len(chunkLens))
	residues := make([]int64, len(chunkLens))
	for c, lens := range chunkLens {
		costs[c] = make([]float64, n)
		for i, dev := range roster {
			costs[c][i] = chunkSeconds(lens, queryLen, dev, opt.Search)
		}
		residues[c] = sumLengths(lens)
	}
	seed := make([]float64, n)
	for i, m := range roster {
		seed[i] = m.RegionSeconds
		if m.OffloadRequired {
			seed[i] += m.TransferSeconds(device.QueryBytes(queryLen))
		}
	}
	s := scheduleChunks(len(chunkLens), n, seed, func(chunk, worker int) float64 {
		return costs[chunk][worker]
	})
	p := &Plan{
		Dist:    opt.Dist,
		Shares:  make([]float64, n),
		Seconds: s.Busy,
		Chunks:  s.Chunks,
	}
	var total int64
	perDevice := make([]int64, n)
	for c, w := range s.Assign {
		perDevice[w] += residues[c]
		total += residues[c]
	}
	if total > 0 {
		for i := range p.Shares {
			p.Shares[i] = float64(perDevice[i]) / float64(total)
		}
	}
	p.Makespan = s.Makespan + device.HostSortSeconds(dbLen)
	return p
}

// PlanLengths predicts the schedule of a roster under opt.Dist from
// sequence lengths alone — no database materialisation, no kernels:
// Algorithm 2's static residue split (opt.Shares, model-balanced when nil),
// or the dynamic and guided device-level chunk queues.
// This is what lets swbench compare distribution strategies over the full
// 541,561-sequence Swiss-Prot in milliseconds, the same shape-level trick
// the figures use.
func PlanLengths(lengths []int, queryLen int, roster []*device.Model, opt core.DispatchOptions) (*Plan, error) {
	if err := validateRoster(roster); err != nil {
		return nil, err
	}
	sorted := append([]int(nil), lengths...)
	sort.Ints(sorted)
	switch opt.Dist {
	case core.DistStatic:
		shares := opt.Shares
		if shares == nil {
			shares = OptimalShares(sorted, queryLen, opt.Search, roster)
		}
		if err := validateShares(shares, len(roster)); err != nil {
			return nil, err
		}
		parts := seqdb.SplitLengthsN(sorted, shares)
		return planStaticLengths(parts, queryLen, roster, opt, len(sorted)), nil
	case core.DistDynamic, core.DistGuided:
		windows := chunkWindows(sorted, opt.Dist, len(roster))
		chunkLens := make([][]int, len(windows))
		for c, w := range windows {
			chunkLens[c] = sorted[w[0]:w[1]]
		}
		return planChunkLengths(chunkLens, queryLen, roster, opt, len(sorted)), nil
	}
	return nil, fmt.Errorf("model: unknown distribution %v", opt.Dist)
}

// chunkSeconds predicts one chunk's busy time on one device, plus the
// chunk's own PCIe shipment for offload devices. Unlike estimateSeconds it
// charges neither the parallel-region launch nor the host sort — those are
// per-search, not per-chunk, and planChunkLengths seeds/appends them once.
//
// The queue streams chunks through each device's in-device dynamic
// scheduler with no barrier between chunks (the device keeps its thread
// pool fed from whatever it has claimed, as SWAPHI's multi-coprocessor
// distribution does), so a chunk's compute cost is its aggregate cycles
// over the device's whole-device throughput; the end-of-search drain tail
// is bounded by one lane group per thread and neglected.
func chunkSeconds(lengths []int, m int, dev *device.Model, opt core.SearchOptions) float64 {
	if len(lengths) == 0 || m == 0 {
		return 0
	}
	costs, threads := servingCosts(lengths, m, dev, opt)
	var cycles float64
	for _, c := range costs {
		cycles += c + dev.DispatchCycles
	}
	seconds := cycles / (float64(threads) * dev.ThreadRate(threads))
	if dev.OffloadRequired {
		in := device.DatabaseBytes(sumLengths(lengths), len(lengths))
		out := device.ScoreBytes(len(lengths))
		seconds = dev.OffloadSeconds(in, out, seconds)
	}
	return seconds
}
