package core

import (
	"fmt"

	"heterosw/internal/device"
	"heterosw/internal/profile"
	"heterosw/internal/seqdb"
	"heterosw/internal/vec"
)

// Params fixes the alignment parameters of a search. The gap model is the
// paper's Eq. 5: a gap of length x costs GapOpen + GapExtend*x.
type Params struct {
	Variant   Variant
	GapOpen   int // q >= 0
	GapExtend int // r >= 0
	// Blocked enables the cache-blocking optimisation of the device model
	// (Figure 7): the modelled kernel processes the query dimension in
	// tiles of BlockRows rows, so its hot working set is O(BlockRows)
	// instead of O(query length). Both are inputs of the simulated
	// accounting only; the real kernels size their tiles for the host
	// (see tileBytes).
	Blocked   bool
	BlockRows int
}

// DefaultBlockRows is the modelled query-tile height when Params.Blocked is
// set without an explicit BlockRows. 256 rows x 32 lanes x 2 arrays x 2
// bytes = 32 KiB comfortably fits the per-thread share of both devices'
// caches. The host kernels use the same 32 KiB (see tileBytes).
const DefaultBlockRows = 256

// tileBytes is the working set the real kernels give one query tile: the H
// and E state of its rows, the slab the kernels walk top to bottom once per
// database column (the byte rung's sweep in one call per tile, the 16-bit
// rung's column step in one call per column). Every rung gets the same
// budget, so a tile holds 256 rows of 64 byte lanes, 512 of 32 byte lanes
// and 512 of the 16 int16 lanes of an escalation group, and the slab stays
// in the 32-48 KiB L1d of every machine the native tiers run on. Past L1
// the kernels slow: on the 2-core avx2+vbmi host (Xeon, family 6 model
// 207, 48 KiB L1d) one thread of the byte column step the sweep replaced
// ran 64 lanes at 20.0-26.0 Gcells/s at 256 rows and 17.5-20.4 at 512
// (medians of ten, two rounds; within a round 512 rows read 12-22% below
// 256, and the rate falls from 320 rows on); BenchmarkStepCol8QP, now
// timing the sweep, reads 19.7-23.3 and 18.3-21.3 (five samples each). A
// shorter tile only moves more boundary rows across seams, and a longer
// 16-bit tile spills: with 24 KiB for byte lanes the paper's batch
// (bench/, batch_short) ran 3.5% slower than at 32 KiB, and with 64 KiB
// kept for the 16-bit rung 2.2% slower (four pairs each).
const tileBytes = 32 << 10

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.Variant < 0 || p.Variant >= numVariants {
		return fmt.Errorf("core: invalid variant %d", int(p.Variant))
	}
	if p.GapOpen < 0 || p.GapExtend < 0 {
		return fmt.Errorf("core: negative gap penalties q=%d r=%d", p.GapOpen, p.GapExtend)
	}
	if p.Blocked && p.BlockRows < 0 {
		return fmt.Errorf("core: negative block rows %d", p.BlockRows)
	}
	// The 16-bit kernels hold q+r in an int16 lane constant; bound it well
	// below the rail so gap arithmetic can never wrap.
	if p.GapOpen+p.GapExtend > 16384 {
		return fmt.Errorf("core: gap penalties q+r = %d exceed the supported maximum 16384", p.GapOpen+p.GapExtend)
	}
	return nil
}

// KernelClass maps the parameters to the architecture-neutral descriptor
// the device cost model consumes: the paper's variant, priced as the
// figures price it, though every search executes the precision ladder.
// EightBit is not a parameter: the planner sets it from the matrix and the
// device (see FirstRung).
func (p Params) KernelClass() device.KernelClass {
	return device.KernelClass{
		Scalar:       p.Variant.Vec() == VecNone,
		Guided:       p.Variant.Vec() == VecGuided,
		QueryProfile: p.Variant.Prof() == ProfQuery,
		Blocked:      p.Blocked,
		BlockRows:    p.BlockRows,
	}
}

// Buffers holds per-worker kernel scratch so the hot loops never allocate.
// Each scheduler worker owns one Buffers; they are not safe for concurrent
// use.
type Buffers struct {
	lanes int
	// tileRows, when positive, replaces the host-sized query tile height
	// (see tileBytes); the seam tests set it to force small tiles.
	tileRows int

	// 16-bit state for the intrinsic kernels. he16 is one contiguous slab
	// holding both the H and E tile arrays ((rows+1)*lanes each) so the
	// fused column steps walk a single cache-friendly block.
	he16        []int16 // intrinsic tile state, 2 * (rows+1) * lanes
	hb16, fb16  []int16 // block boundary rows, width * lanes
	f16, diag16 vec.I16 // lane temporaries
	max16       vec.I16

	// 8-bit state for the ladder's first pass, in signed lanes offset by
	// -128.
	he8      []int8 // intrinsic tile state, 2 * (rows+1) * lanes
	hb8, fb8 []int8 // block boundary rows, width * lanes
	max8     vec.I8 // score tracker

	// Ladder escalation (kernel_u8.go): byte lanes that saturated wait in
	// pend[:npend] until escLanes of them fill escGroup, which runs through
	// the 16-bit kernel on esc, a Buffers of that width made on first use.
	pend      []escalation
	npend     int
	esc       *Buffers
	escGroup  seqdb.LaneGroup
	escScores [escLanes]int32

	// 32-bit state of the ladder's top rung (scalarSeq), per query row.
	h32, e32 []int32

	// sr holds the 16-bit rung's score rows for the current column.
	sr *profile.ScoreRows

	// laneScores is the per-group score vector the engine reads the
	// intrinsic kernels' results from, one per worker instead of one per
	// group.
	laneScores []int32

	// Striped-kernel state: the query's striped profile, the H and E
	// stripe arrays (one slab, stripes * stripedLanes each) and the three
	// lane temporaries (diag, F, max tracker).
	striped    []int16
	stripedHE  []int16
	stripedVec [3 * stripedLanes]int16
}

// NewBuffers allocates kernel scratch for a lane width.
func NewBuffers(lanes int) *Buffers {
	b := &Buffers{
		lanes:      lanes,
		f16:        make(vec.I16, lanes),
		diag16:     make(vec.I16, lanes),
		max16:      make(vec.I16, lanes),
		sr:         profile.NewScoreRows(lanes),
		max8:       make(vec.I8, lanes),
		laneScores: make([]int32, lanes),
		// One group queues at most lanes saturations on top of a
		// remainder shorter than one escalation group.
		pend: make([]escalation, lanes+escLanes),
	}
	return b
}

// tile returns the query tile height for a query of m rows whose H and E
// state takes elem bytes per lane: tileBytes worth of rows, the whole query
// when it is shorter.
func (b *Buffers) tile(m, lanes, elem int) int {
	rows := b.tileRows
	if rows <= 0 {
		rows = tileBytes / (2 * lanes * elem)
	}
	if rows > m {
		rows = m
	}
	return rows
}

//sw:hotpath
func grow8[T int8 | uint8](p *[]T, n int) []T {
	if cap(*p) < n {
		*p = make([]T, n)
	}
	return (*p)[:n]
}

//sw:hotpath
func grow16(p *[]int16, n int) []int16 {
	if cap(*p) < n {
		*p = make([]int16, n)
	}
	return (*p)[:n]
}

//sw:hotpath
func grow32(p *[]int32, n int) []int32 {
	if cap(*p) < n {
		*p = make([]int32, n)
	}
	return (*p)[:n]
}

// AlignGroup aligns the query against every lane of group g and returns the
// per-lane optimal local-alignment scores (padding lanes score 0) plus the
// structural operation counts. buf must have been created with
// NewBuffers(g.Lanes).
//
// Every group runs the precision ladder, whatever p.Variant names (the
// variant is a planner input): byte lanes first when the group allows them
// (see byteLanes), the 16-bit pass otherwise, with every saturated lane
// escalated before the call returns.
func AlignGroup(q *profile.Query, g *seqdb.LaneGroup, p Params, buf *Buffers) ([]int32, Stats) {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	scores := make([]int32, g.Lanes)
	st := alignGroupLadder(q, g, p, buf, scores)
	for _, e := range buf.escalate(q, p, &st, true) {
		scores[e.lane] = e.score
	}
	return scores, st
}

// alignGroupLadder runs the first rung of the precision ladder over one
// group, writing lane scores to scores (g.Lanes long). Byte lanes that
// saturate are queued in buf; their scores arrive from buf.escalate.
//
//sw:hotpath
func alignGroupLadder(q *profile.Query, g *seqdb.LaneGroup, p Params, buf *Buffers, scores []int32) Stats {
	if byteLanes(p.byteGaps(), g.Lanes) {
		return alignGroupIntrinsic8(q, g, p, buf, scores)
	}
	return alignGroupIntrinsic(q, g, p, buf, scores)
}
