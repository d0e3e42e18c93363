package core

import (
	"heterosw/internal/device"
	"heterosw/internal/offload"
	"heterosw/internal/sched"
	"heterosw/internal/seqdb"
)

// shapeCosts resolves the engine's lane-width and long-sequence routing
// rules for a device, packs the lengths into scheduler-chunk shapes and
// prices each one — the cost pipeline shared by the static share
// estimator (estimateSeconds) and the dynamic chunk coster
// (chunkSeconds), kept in one place so the two distribution strategies
// can never drift apart.
func shapeCosts(lengths []int, m int, dev *device.Model, opt SearchOptions) (costs []float64, residues int64, threads int) {
	threads = opt.Threads
	if threads <= 0 {
		threads = dev.MaxThreads()
	}
	class := opt.Params.KernelClass()
	// The same rule as Engine.Search. (With byte lanes the estimate
	// optimistically assumes no escalation recomputes; over a realistic
	// protein database the saturating tail is negligible.)
	lanes, eightBit := firstRung(opt.Variant, opt.byteViable(), dev)
	class.EightBit = eightBit
	longThr := opt.LongSeqThreshold
	switch {
	case longThr < 0 || class.Scalar:
		longThr = 0
	case longThr == 0:
		longThr = DefaultLongSeqThreshold
	}
	shapes := seqdb.PackShapes(lengths, lanes, true, longThr)
	coeffs := dev.Coeffs(class, m, lanes, threads)
	intra := dev.IntraCoeffs(m)
	costs = make([]float64, len(shapes))
	for i, s := range shapes {
		if s.Intra {
			costs[i] = intra.Cost(s)
		} else {
			costs[i] = coeffs.Cost(s)
		}
		residues += s.Residues
	}
	return costs, residues, threads
}

// estimateComputeSeconds predicts the parallel region and offload time of
// a search over the given sequence lengths on one device — everything
// Engine.Search simulates except the final host-side score sort, which
// cluster planning charges once over the merged list rather than per
// shard (see Plan).
func estimateComputeSeconds(lengths []int, m int, dev *device.Model, opt SearchOptions) float64 {
	if len(lengths) == 0 || m == 0 {
		return 0
	}
	costs, residues, threads := shapeCosts(lengths, m, dev, opt)
	chunk := opt.ChunkSize
	if chunk <= 0 {
		chunk = 1
	}
	sim := sched.Simulate(costs, threads, opt.Schedule, chunk, dev.DispatchCycles)
	seconds := dev.Seconds(sim.Makespan, threads)
	if dev.OffloadRequired {
		in := offload.QueryBytes(m) + offload.DatabaseBytes(residues, len(lengths))
		out := offload.ScoreBytes(len(lengths))
		seconds = offload.RegionSeconds(dev, in, out, seconds)
	}
	return seconds
}

// estimateSeconds predicts the simulated completion time of a search over
// a database with the given sequence lengths on one device, using the same
// cost pipeline as Engine.Search but without executing kernels. It powers
// the model-driven workload-distribution strategy.
func estimateSeconds(lengths []int, m int, dev *device.Model, opt SearchOptions) float64 {
	if len(lengths) == 0 || m == 0 {
		return 0
	}
	return estimateComputeSeconds(lengths, m, dev, opt) + device.HostSortSeconds(len(lengths))
}

// OptimalShares computes a model-driven static workload distribution over
// an arbitrary device roster — the N-way generalisation of the "other
// workload distribution strategies" the paper proposes as future work.
// Every backend is simulated over the whole database; since completion
// time is close to linear in the residue share, balanced shares are
// proportional to each backend's predicted throughput (1 / t_i). The
// returned shares are normalised to sum to 1; equal shares are returned
// when no prediction is possible (empty database, zero query length).
func OptimalShares(lengths []int, queryLen int, opt SearchOptions, backends []Backend) []float64 {
	n := len(backends)
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
	for i, b := range backends {
		bopt := opt
		bopt.Threads = b.Threads()
		t := estimateSeconds(lengths, queryLen, b.Model(), bopt)
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

// OptimalMICShare computes a model-driven workload distribution for
// Algorithm 2 — the two-device case of OptimalShares. Both devices are
// simulated on the full database; since completion time is close to
// linear in the residue share, the balance point is tCPU / (tCPU + tMIC).
// The result is clamped to [0, 1].
func OptimalMICShare(db *seqdb.Database, queryLen int, opt SearchOptions, cpu, mic *device.Model, cpuThreads, micThreads int) float64 {
	if db == nil || db.Len() == 0 || queryLen == 0 {
		return 0.5
	}
	shares := OptimalShares(db.OrderLengths(), queryLen, opt, []Backend{
		NewBackend(mic.Short, mic, micThreads),
		NewBackend(cpu.Short, cpu, cpuThreads),
	})
	return shares[0]
}
