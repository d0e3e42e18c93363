// Package model is the paper's device model: everything that turns
// sequence lengths into simulated seconds on the Xeon and Xeon Phi cost
// models of internal/device. It regenerates every figure and in-text table
// of the paper's evaluation (Section V): Xeon and Phi thread scaling (Figs.
// 3, 5), query-length sweeps (Figs. 4, 6), blocking (Fig. 7), the
// heterogeneous workload-distribution sweep (Fig. 8), the
// parallel-efficiency numbers quoted in the text, and the
// scheduling/sorting/power ablations the paper discusses qualitatively. It
// also plans a search over a device roster under Algorithm 2's static split
// and its dynamic and guided generalisations (PlanLengths), replays the
// OpenMP schedules both rest on (Simulate), and renders figures as text
// tables and CSV.
//
// Figures are computed over the synthetic Swiss-Prot workload at shape
// level: the device cost models consume only lane-group geometry, so the
// full 541,561-sequence database is simulated exactly without materialising
// residues (see the README's "The device model: pricing a roster").
// Functional score verification is exercised by the engine tests, the
// kernel parity fuzzer and the conformance harness on smaller materialised
// databases.
//
// The figures and the planner price a one-device search through one step:
// costShapes then replaySeconds. They differ only in the lanes they pack:
// the figures the paper's kernels (Workload.SimSearch), the planner the
// serving ladder's first rung (servingCosts).
package model

import (
	"heterosw/internal/device"
	"heterosw/internal/sched"
)

// costShapes prices every packed shape on dev: a lane group under the
// kernel class at the given lane width and thread count, a long subject
// under the intra-task kernel. It reuses costs when it is large enough.
func costShapes(costs []float64, shapes []device.Shape, m int, dev *device.Model, class device.KernelClass, lanes, threads int) []float64 {
	coeffs := dev.Coeffs(class, m, lanes, threads)
	intra := dev.IntraCoeffs(m)
	if cap(costs) < len(shapes) {
		costs = make([]float64, len(shapes))
	}
	costs = costs[:len(shapes)]
	for i, s := range shapes {
		if s.Intra {
			costs[i] = intra.Cost(s)
		} else {
			costs[i] = coeffs.Cost(s)
		}
	}
	return costs
}

// replaySeconds turns the shape costs of one search — m query residues
// against seqs sequences holding residues residues — into simulated
// seconds on dev: the device's loop schedule replayed over its threads,
// converted at its clock, plus the PCIe transfers of an offload device.
// The host-side sort of the scores stays with the caller: the figures
// charge it per device, the planner once over the merged list.
func replaySeconds(costs []float64, m int, residues int64, seqs int, dev *device.Model, threads int, policy sched.Policy) float64 {
	sim := Simulate(costs, threads, policy, dev.DispatchCycles)
	seconds := dev.Seconds(sim.Makespan, threads)
	if dev.OffloadRequired {
		in := device.QueryBytes(m) + device.DatabaseBytes(residues, seqs)
		out := device.ScoreBytes(seqs)
		seconds = dev.OffloadSeconds(in, out, seconds)
	}
	return seconds
}

// sumLengths returns the residue count of a length list.
func sumLengths(lengths []int) int64 {
	var n int64
	for _, l := range lengths {
		n += int64(l)
	}
	return n
}
