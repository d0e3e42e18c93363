// Package figures regenerates every figure and in-text table of the
// paper's evaluation (Section V): Xeon and Phi thread scaling (Figs. 3, 5),
// query-length sweeps (Figs. 4, 6), blocking (Fig. 7), the heterogeneous
// workload-distribution sweep (Fig. 8), the parallel-efficiency numbers
// quoted in the text, and the scheduling/sorting/power ablations the paper
// discusses qualitatively.
//
// Figures are computed over the synthetic Swiss-Prot workload at shape
// level: the device cost models consume only lane-group geometry, so the
// full 541,561-sequence database is simulated exactly without materialising
// residues (see the README's "The device model: pricing a roster").
// Functional score verification is exercised by
// the engine tests, the kernel parity fuzzer and the conformance harness
// on smaller materialised databases.
package figures

import (
	"fmt"

	"heterosw/internal/core"
	"heterosw/internal/datagen"
	"heterosw/internal/device"
	"heterosw/internal/sched"
	"heterosw/internal/seqdb"
)

// Workload is the simulated benchmark environment: the database length
// distribution and the paper's 20 queries.
type Workload struct {
	// Scale is the fraction of full Swiss-Prot simulated (1.0 = 541,561
	// sequences).
	Scale float64

	lengths  []int
	residues int64
	queries  []datagen.QuerySpec

	shapes map[shapeKey][]device.Shape
	costs  []float64 // scratch, grown on demand
	splits map[float64]*heteroParts
}

type heteroParts struct {
	cpu, mic *Workload
}

type shapeKey struct {
	lanes         int
	sorted        bool
	longThreshold int
}

// NewWorkload builds the benchmark workload at the given database scale.
func NewWorkload(scale float64) *Workload {
	cfg := datagen.SwissProtConfig(scale)
	w := &Workload{
		Scale:   scale,
		lengths: datagen.Lengths(cfg),
		queries: datagen.PaperQueries(),
		shapes:  make(map[shapeKey][]device.Shape),
		splits:  make(map[float64]*heteroParts),
	}
	for _, l := range w.lengths {
		w.residues += int64(l)
	}
	return w
}

// Residues returns the database residue count at this scale.
func (w *Workload) Residues() int64 { return w.residues }

// Sequences returns the database sequence count at this scale.
func (w *Workload) Sequences() int { return len(w.lengths) }

// Queries returns the benchmark query specs (ascending length).
func (w *Workload) Queries() []datagen.QuerySpec { return w.queries }

func (w *Workload) shapesFor(lanes int, sorted bool, longThreshold int) []device.Shape {
	k := shapeKey{lanes, sorted, longThreshold}
	if s, ok := w.shapes[k]; ok {
		return s
	}
	s := seqdb.PackShapes(w.lengths, lanes, sorted, longThreshold)
	w.shapes[k] = s
	return s
}

// Config selects one simulated search configuration.
type Config struct {
	Dev     *device.Model
	Variant core.Variant
	// Unblocked disables the cache-blocking optimisation (figures default
	// to the blocked baseline, as the paper's code does).
	Unblocked bool
	Threads   int // device maximum when 0
	Policy    sched.Policy
	Unsorted  bool // skip the length-sorting pre-processing
}

func (c Config) params() core.Params {
	return core.Params{
		Variant:   c.Variant,
		GapOpen:   10,
		GapExtend: 2,
		Blocked:   !c.Unblocked,
	}
}

func (c Config) threads() int {
	if c.Threads <= 0 {
		return c.Dev.MaxThreads()
	}
	return c.Threads
}

// SimSearch simulates one database search with a query of length m,
// returning the simulated seconds and the useful cell count.
func (w *Workload) SimSearch(c Config, m int) (seconds float64, cells int64) {
	class := c.params().KernelClass()
	lanes := c.Dev.Lanes
	longThr := core.DefaultLongSeqThreshold
	if class.Scalar {
		lanes = 1
		longThr = 0 // the scalar kernel needs no long-sequence routing
	}
	threads := c.threads()
	shapes := w.shapesFor(lanes, !c.Unsorted, longThr)
	coeffs := c.Dev.Coeffs(class, m, lanes, threads)
	intra := c.Dev.IntraCoeffs(m)
	if cap(w.costs) < len(shapes) {
		w.costs = make([]float64, len(shapes))
	}
	costs := w.costs[:len(shapes)]
	for i, s := range shapes {
		if s.Intra {
			costs[i] = intra.Cost(s)
		} else {
			costs[i] = coeffs.Cost(s)
		}
	}
	sim := sched.Simulate(costs, threads, c.Policy, c.Dev.DispatchCycles)
	seconds = c.Dev.Seconds(sim.Makespan, threads)
	if c.Dev.OffloadRequired {
		in := device.QueryBytes(m) + device.DatabaseBytes(w.residues, len(w.lengths))
		out := device.ScoreBytes(len(w.lengths))
		seconds = c.Dev.OffloadSeconds(in, out, seconds)
	}
	// Step 4: the serial host-side sort of the similarity scores.
	seconds += device.HostSortSeconds(len(w.lengths))
	return seconds, int64(m) * w.residues
}

// GCUPS simulates one search and returns its GCUPS.
func (w *Workload) GCUPS(c Config, m int) float64 {
	sec, cells := w.SimSearch(c, m)
	return float64(cells) / sec / 1e9
}

// AggregateGCUPS runs the full 20-query benchmark and returns the mean of
// the per-query GCUPS values, the workload-level metric the thread-scaling
// figures report.
func (w *Workload) AggregateGCUPS(c Config) float64 {
	var sum float64
	for _, q := range w.queries {
		sec, cells := w.SimSearch(c, q.Length)
		sum += float64(cells) / sec / 1e9
	}
	return sum / float64(len(w.queries))
}

// HeteroConfig selects a simulated heterogeneous search.
type HeteroConfig struct {
	CPU, MIC Config // Dev fields select the two models
	MICShare float64
}

// partsFor caches the per-share split sub-workloads so a share sweep does
// not re-sort half a million lengths per query.
func (w *Workload) partsFor(share float64) *heteroParts {
	if p, ok := w.splits[share]; ok {
		return p
	}
	micLens, cpuLens := seqdb.SplitLengths(w.lengths, share)
	mk := func(lens []int) *Workload {
		sub := &Workload{lengths: lens, shapes: make(map[shapeKey][]device.Shape)}
		for _, l := range lens {
			sub.residues += int64(l)
		}
		return sub
	}
	p := &heteroParts{cpu: mk(cpuLens), mic: mk(micLens)}
	w.splits[share] = p
	return p
}

// SimHetero simulates Algorithm 2 for one query length: the database is
// split by residue share, the MIC part runs inside an offload region
// overlapping the CPU part, and completion is the maximum of the two.
func (w *Workload) SimHetero(h HeteroConfig, m int) (seconds float64, cells int64) {
	p := w.partsFor(h.MICShare)
	var cpuSec, micSec float64
	if len(p.cpu.lengths) > 0 {
		cpuSec, _ = p.cpu.SimSearch(h.CPU, m)
	}
	if len(p.mic.lengths) > 0 {
		micSec, _ = p.mic.SimSearch(h.MIC, m)
	}
	seconds = cpuSec
	if micSec > seconds {
		seconds = micSec
	}
	return seconds, int64(m) * w.residues
}

// HeteroAggregateGCUPS runs the 20-query benchmark over the hybrid system
// and returns the mean per-query GCUPS.
func (w *Workload) HeteroAggregateGCUPS(h HeteroConfig) float64 {
	var sum float64
	for _, q := range w.queries {
		sec, cells := w.SimHetero(h, q.Length)
		sum += float64(cells) / sec / 1e9
	}
	return sum / float64(len(w.queries))
}

// String identifies the workload in reports.
func (w *Workload) String() string {
	return fmt.Sprintf("synthetic Swiss-Prot x%.3g: %d sequences, %d residues",
		w.Scale, len(w.lengths), w.residues)
}
