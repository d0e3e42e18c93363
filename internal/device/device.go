// Package device models the two processors of the paper's testbed — the
// dual-socket Intel Xeon E5-2670 host and the 60-core Intel Xeon Phi
// coprocessor — as deterministic performance models. The alignment kernels
// report architecture-neutral structure (vector iterations, gathers,
// profile builds, working sets); this package converts that structure into
// simulated cycles and seconds.
//
// The model captures the six mechanisms that produce the shapes of the
// paper's figures:
//
//  1. vector width (16 16-bit lanes on Xeon, 32 on Phi);
//  2. gather support: the query-profile inner loop needs an indexed load
//     per iteration, cheap-ish on the Phi (hardware vgather), expensive on
//     the Xeon (shuffle/insert sequences) — Figures 3-6's QP/SP gaps;
//  3. per-column overhead amortised by query length — Figures 4 and 6;
//  4. cache capacity versus kernel working set, removed by blocking —
//     Figure 7;
//  5. SMT and shared-resource contention thread-scaling — Figures 3 and 5;
//  6. PCIe offload transfer for the coprocessor — Figure 8.
//
// Constants marked "fitted" in params.go were calibrated once against the
// GCUPS values the paper states in its text and then frozen; everything
// else is mechanistic. See the README's "The device model: pricing a
// roster" and "Interpreting GCUPS".
package device

import (
	"fmt"
	"math"

	"heterosw/internal/vec"
)

// HostSIMD reports the real vector backend executing the emulated lanes in
// this process (AVX2 assembly or the portable Go loops), so tools can
// print host capability beside the modelled device widths. The modelled
// widths and the cost model are unaffected by the selection — simulated
// cycles come from structural operation counts, wall throughput from the
// backend.
func HostSIMD() vec.BackendInfo { return vec.Info() }

// HostSortSeconds models step 4 of the paper's pipeline: the final
// descending sort of one similarity score per database sequence, performed
// serially on the host after the parallel region (and after the offload
// returns, for coprocessor runs). For short queries against a 541k-sequence
// database this serial tail is a measurable fraction of the search, which
// is part of why GCUPS grows with query length.
func HostSortSeconds(n int) float64 {
	if n < 2 {
		return 0
	}
	const cyclesPerElementCompare = 22 // fitted; ~90 ms for 541k scores (callback-based sort)
	const hostFreqHz = 2.6e9
	return float64(n) * math.Log2(float64(n)) * cyclesPerElementCompare / hostFreqHz
}

// KernelClass describes which kernel variant a cost query is about, in
// architecture-neutral terms (mirrors internal/core's Variant + Params
// without importing it, to keep the dependency direction substrate->none).
type KernelClass struct {
	// Scalar marks the no-vec kernel; Guided distinguishes
	// compiler-vectorised from hand-vectorised (intrinsic) kernels.
	Scalar, Guided bool
	// QueryProfile selects QP (gather per iteration) versus SP (profile
	// build per column).
	QueryProfile bool
	// Blocked enables the cache-blocking cost shape with BlockRows tile
	// height (0 selects the engine default of 256).
	Blocked   bool
	BlockRows int
	// EightBit marks the intrinsic ladder's 8-bit first pass: byte lanes
	// (twice as many per register, halving the group count the engine
	// schedules) and byte-sized kernel state. The per-vector-iteration
	// cycle cost is unchanged — the speedup comes from the doubled lane
	// packing, plus the smaller working set where cache pressure bites.
	EightBit bool
}

// Shape is the cost-relevant geometry of one scheduler chunk: a lane
// group's padded width, lane count and true residue content — or a single
// long sequence handled by the intra-task kernel.
type Shape struct {
	Width    int
	Lanes    int
	Residues int64
	// Intra marks a long-sequence chunk processed by the anti-diagonal
	// intra-task kernel instead of the inter-task lane kernel.
	Intra bool
}

// Model is a device performance model. Fields are exported so experiment
// code can derive ablations (e.g. a gather-less Phi); the package-level
// Xeon() and Phi() constructors return the calibrated instances.
type Model struct {
	Name  string
	Short string

	// Execution resources.
	Cores          int
	ThreadsPerCore int
	FreqHz         float64
	Lanes          int // 16-bit vector lanes

	// SMT holds relative whole-core throughput with 1..ThreadsPerCore
	// resident threads (fitted). The Phi's in-order cores need >=2
	// threads to fill the pipeline, so SMT[0] is ~0.5 there.
	SMT []float64
	// ContentionSlope is the per-additional-active-core throughput loss
	// from shared resources (uncore, memory bandwidth) (fitted).
	ContentionSlope float64

	// Inner-loop costs in cycles (fitted).
	ScalarIterCycles    float64 // per cell, no-vec kernel
	GuidedIterCycles    float64 // per vector iteration, compiler-vectorised
	IntrinsicIterCycles float64 // per vector iteration, hand-vectorised
	GatherGuided        float64 // extra cycles/iteration, QP with guided code
	GatherIntrinsic     float64 // extra cycles/iteration, QP with intrinsics
	// GatherContention scales the gather cost with active cores,
	// modelling shared-port/cache pressure of indexed loads (fitted; the
	// mechanism behind intrinsic-QP's poorer scaling efficiency on Xeon).
	GatherContention float64

	// Structural overheads in cycles (fitted).
	SPBuildCycles  float64 // score-profile build, per column per tile
	ColCycles      float64 // loop restart + E/F spill, per column per tile
	BoundaryCycles float64 // boundary row traffic, per column per tile when blocked
	GroupCycles    float64 // per lane group setup
	SeqCycles      float64 // per alignment finalisation
	DispatchCycles float64 // per scheduler chunk dispatch

	// IntraCellCycles is the per-cell cost of the intra-task kernel that
	// long database sequences are routed to (fitted). It is an order of
	// magnitude below the scalar cost but above the per-lane inter-task
	// cost, reflecting an intra-task layout's shift and gap fix-up
	// overhead.
	IntraCellCycles float64

	// Memory system.
	CachePerCore     int64   // bytes of effective cache per core
	MemPenaltyCycles float64 // extra cycles/iteration at 100% working-set miss

	// Parallel region launch (barrier + thread wake) per search.
	RegionSeconds float64

	// Offload link; zero-valued for the host device.
	OffloadRequired bool
	PCIeBytesPerSec float64
	PCIeLatencySec  float64

	// TDPWatts is the thermal design power used by the energy ablation.
	TDPWatts float64
}

// Validate checks internal consistency of a model.
func (m *Model) Validate() error {
	if m.Cores < 1 || m.ThreadsPerCore < 1 || m.FreqHz <= 0 || m.Lanes < 1 {
		return fmt.Errorf("device %s: bad resources", m.Name)
	}
	if len(m.SMT) != m.ThreadsPerCore {
		return fmt.Errorf("device %s: SMT curve has %d points, want %d", m.Name, len(m.SMT), m.ThreadsPerCore)
	}
	if m.OffloadRequired && m.PCIeBytesPerSec <= 0 {
		return fmt.Errorf("device %s: offload without PCIe bandwidth", m.Name)
	}
	return nil
}

// MaxThreads returns the hardware thread count.
func (m *Model) MaxThreads() int { return m.Cores * m.ThreadsPerCore }

// ByteLanes returns the register's unsigned 8-bit lane count — twice the
// 16-bit count, the packing the ladder's first pass exploits.
func (m *Model) ByteLanes() int { return 2 * m.Lanes }

// threadsPerCore returns how many threads share a core when T threads run
// (threads are spread across cores first, as OpenMP's default affinity
// does).
func (m *Model) threadsPerCore(threads int) int {
	tpc := (threads + m.Cores - 1) / m.Cores
	if tpc < 1 {
		tpc = 1
	}
	if tpc > m.ThreadsPerCore {
		tpc = m.ThreadsPerCore
	}
	return tpc
}

// activeCores returns how many cores have at least one thread.
func (m *Model) activeCores(threads int) int {
	if threads < m.Cores {
		return threads
	}
	return m.Cores
}

// contention returns the shared-resource throughput factor with a active
// cores.
func (m *Model) contention(active int) float64 {
	c := 1 - m.ContentionSlope*float64(active-1)
	if c < 0.1 {
		c = 0.1
	}
	return c
}

// coreUnits returns the device-wide throughput in whole-core units when
// `threads` threads run, with threads dealt round-robin across cores: rem
// cores host one extra thread when threads is not a multiple of Cores.
func (m *Model) coreUnits(threads int) float64 {
	c := m.Cores
	if threads <= c {
		return float64(threads) * m.SMT[0]
	}
	q := threads / c
	rem := threads % c
	if q >= m.ThreadsPerCore {
		return float64(c) * m.SMT[m.ThreadsPerCore-1]
	}
	if rem == 0 {
		return float64(c) * m.SMT[q-1]
	}
	return float64(rem)*m.SMT[q] + float64(c-rem)*m.SMT[q-1]
}

// ThreadRate returns the simulated cycles per second a single thread
// retires when `threads` threads run device-wide: core throughput is
// divided among resident threads and degraded by shared-resource
// contention. (The mean rate over threads is used; at every thread count
// the paper evaluates, occupancy is uniform and the mean is exact.)
func (m *Model) ThreadRate(threads int) float64 {
	if threads < 1 {
		threads = 1
	}
	if threads > m.MaxThreads() {
		threads = m.MaxThreads()
	}
	return m.FreqHz * m.coreUnits(threads) / float64(threads) * m.contention(m.activeCores(threads))
}

// Seconds converts a simulated makespan in cycles into wall time for a
// given thread count, adding the parallel-region launch cost.
func (m *Model) Seconds(makespanCycles float64, threads int) float64 {
	return makespanCycles/m.ThreadRate(threads) + m.RegionSeconds
}

// TransferSeconds models one offload data movement of the given byte count
// over the PCIe link (zero for host devices).
func (m *Model) TransferSeconds(bytes int64) float64 {
	if !m.OffloadRequired {
		return 0
	}
	return m.PCIeLatencySec + float64(bytes)/m.PCIeBytesPerSec
}

// OffloadSeconds returns the simulated wall time of one offload region —
// the paper's #pragma offload target(mic) in Algorithms 1 and 2 — on the
// device: transfer in, compute, transfer out, with the link latency
// charged per transfer direction. For host devices (no offload) it is just
// the compute time.
func (m *Model) OffloadSeconds(inBytes, outBytes int64, computeSeconds float64) float64 {
	return m.TransferSeconds(inBytes) + computeSeconds + m.TransferSeconds(outBytes)
}

// Offload transfer sizing. The offload in Algorithm 2 ships the query, the
// substitution matrix and the device's database partition in, and the
// similarity scores out.
const (
	perSequenceMetaBytes = 16 // length + offset bookkeeping per sequence
	matrixBytes          = profileTableWidth * profileTableWidth * 2
	perScoreBytes        = 8 // score + sequence index
)

// DatabaseBytes returns the size of a database partition transfer: one byte
// per residue plus per-sequence metadata.
func DatabaseBytes(residues int64, sequences int) int64 {
	return residues + int64(sequences)*perSequenceMetaBytes
}

// QueryBytes returns the size of the query-side transfer: the encoded
// query, its precomputed query profile and the substitution matrix.
func QueryBytes(queryLen int) int64 {
	return int64(queryLen) + int64(queryLen)*profileTableWidth*2 + matrixBytes
}

// ScoreBytes returns the size of the out transfer of similarity scores.
func ScoreBytes(sequences int) int64 {
	return int64(sequences) * perScoreBytes
}

const (
	// profileTableWidth mirrors profile.TableWidth (alphabet + pad)
	// without importing it.
	profileTableWidth = 25
	// defaultBlockRows mirrors core.DefaultBlockRows.
	defaultBlockRows = 256
)

// workingSet returns the hot per-thread bytes of the kernel inner loop for
// a query of length m under class k.
func (m *Model) workingSet(k KernelClass, M int, lanes int) int64 {
	if k.Scalar {
		// Two int32 arrays over the query.
		return int64(M+1) * 8
	}
	rows := M
	if k.Blocked {
		b := k.BlockRows
		if b == 0 {
			b = defaultBlockRows
		}
		if b < rows {
			rows = b
		}
	}
	elem := int64(2) // int16 intrinsics
	if k.Guided {
		elem = 4 // compiler-vectorised code keeps 32-bit lanes
	}
	if k.EightBit {
		elem = 1 // byte lanes of the ladder's first pass
	}
	state := int64(rows+1) * int64(lanes) * elem * 2 // H and E tiles
	scoreElem := int64(2)
	if k.EightBit {
		scoreElem = 1 // int8 byte profiles
	}
	var prof int64
	if k.QueryProfile {
		prof = int64(rows) * profileTableWidth * scoreElem // QP rows touched per column
	} else {
		prof = profileTableWidth * int64(lanes) * scoreElem // SP scratch
	}
	return state + prof
}

// missFraction returns the fraction of working-set sweeps that overflow the
// per-thread cache share.
func (m *Model) missFraction(ws int64, tpc int) float64 {
	cache := m.CachePerCore / int64(tpc)
	if cache <= 0 || ws <= cache {
		return 0
	}
	return 1 - float64(cache)/float64(ws)
}

// CostCoeffs are the linear coefficients of GroupCost for a fixed kernel
// class, query length and device occupancy:
//
//	cycles = PerWidth*Width + PerResidue*Residues + PerLane*Lanes + PerGroup
//
// Bulk experiments precompute them once per configuration and cost hundreds
// of thousands of group shapes with two multiply-adds each.
type CostCoeffs struct {
	PerWidth   float64
	PerResidue float64
	PerLane    float64
	PerGroup   float64
}

// Cost applies the coefficients to one group shape.
func (c CostCoeffs) Cost(s Shape) float64 {
	return c.PerWidth*float64(s.Width) +
		c.PerResidue*float64(s.Residues) +
		c.PerLane*float64(s.Lanes) +
		c.PerGroup
}

// Coeffs precomputes GroupCost's linear coefficients for a kernel class,
// query length and device-wide thread count. lanes is the group lane width
// (the device's vector lanes, or 1 for the scalar kernel); it determines
// the kernel working set.
func (m *Model) Coeffs(k KernelClass, M, lanes, threads int) CostCoeffs {
	c := CostCoeffs{PerGroup: m.GroupCycles, PerLane: m.SeqCycles}
	if M == 0 {
		c.PerLane = 0
		return c
	}
	if k.Scalar {
		// Cells = M * Residues; per-column overhead folded per residue.
		c.PerResidue = float64(M)*m.ScalarIterCycles + m.ColCycles/8
		return c
	}
	tpc := m.threadsPerCore(threads)
	active := m.activeCores(threads)
	blocks := 1.0
	if k.Blocked {
		b := k.BlockRows
		if b == 0 {
			b = defaultBlockRows
		}
		blocks = float64((M + b - 1) / b)
	}
	base := m.IntrinsicIterCycles
	gather := m.GatherIntrinsic
	if k.Guided {
		base = m.GuidedIterCycles
		gather = m.GatherGuided
	}
	iterCost := base
	if k.QueryProfile {
		iterCost += gather * (1 + m.GatherContention*float64(active-1))
	}
	ws := m.workingSet(k, M, lanes)
	iterCost += m.MemPenaltyCycles * m.missFraction(ws, tpc)

	// Per-column costs: ColCycles is charged once per column (outer-loop
	// bookkeeping, E/F boundary handling); tile restarts and the score-
	// profile rebuild recur per tile, since a blocked kernel revisits
	// every column once per tile.
	perColPerTile := 0.0
	if k.Blocked {
		perColPerTile += m.BoundaryCycles
	}
	if !k.QueryProfile {
		perColPerTile += m.SPBuildCycles
	}
	c.PerWidth = float64(M)*iterCost + m.ColCycles + blocks*perColPerTile
	return c
}

// IntraCoeffs returns the cost coefficients for intra-task long-sequence
// chunks with a query of length M.
func (m *Model) IntraCoeffs(M int) CostCoeffs {
	return CostCoeffs{
		PerResidue: float64(M) * m.IntraCellCycles,
		PerGroup:   m.GroupCycles,
		PerLane:    m.SeqCycles,
	}
}

// GroupCost returns the simulated cycles one thread spends aligning a query
// of length M against one lane group of the given shape, when `threads`
// threads are active device-wide (cache shares and gather contention depend
// on occupancy). overflowCells charges the 32-bit recomputation of
// saturated lanes, when known from a functional run.
func (m *Model) GroupCost(k KernelClass, M int, s Shape, threads int, overflowCells int64) float64 {
	if M == 0 || s.Width == 0 {
		return m.GroupCycles
	}
	if s.Intra {
		return m.IntraCoeffs(M).Cost(s)
	}
	cycles := m.Coeffs(k, M, s.Lanes, threads).Cost(s)
	return cycles + float64(overflowCells)*m.ScalarIterCycles
}
