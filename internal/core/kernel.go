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
	// Blocked enables the cache-blocking optimisation (Figure 7): the
	// query dimension is processed in tiles of BlockRows rows, carrying
	// boundary state, so the hot working set is O(BlockRows) instead of
	// O(query length).
	Blocked   bool
	BlockRows int
	// Prec selects the first-pass precision of the intrinsic kernels:
	// Prec16 (the default) is the classic 16-bit pass with 32-bit
	// escalation; Prec8 puts an 8-bit biased pass in front, doubling the
	// lanes per vector word and escalating saturated lanes 8 -> 16 -> 32.
	// Ignored by the scalar and guided kernels (always 32-bit).
	Prec Precision
}

// DefaultBlockRows is the query-tile height used when Params.Blocked is set
// without an explicit BlockRows. 256 rows x 32 lanes x 2 arrays x 2 bytes
// = 32 KiB comfortably fits the per-thread share of both devices' caches.
const DefaultBlockRows = 256

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
	if p.Prec != Prec16 && p.Prec != Prec8 {
		return fmt.Errorf("core: invalid precision %d", int(p.Prec))
	}
	if p.Prec == Prec8 && p.Variant.Vec() != VecIntrinsic {
		return fmt.Errorf("core: the 8-bit first pass requires an intrinsic variant, got %v", p.Variant)
	}
	return nil
}

// KernelClass maps the parameters to the architecture-neutral descriptor
// the device cost model consumes.
func (p Params) KernelClass() device.KernelClass {
	return device.KernelClass{
		Scalar:       p.Variant.Vec() == VecNone,
		Guided:       p.Variant.Vec() == VecGuided,
		QueryProfile: p.Variant.Prof() == ProfQuery,
		Blocked:      p.Blocked,
		BlockRows:    p.BlockRows,
		EightBit:     p.Prec == Prec8 && p.Variant.Vec() == VecIntrinsic,
	}
}

func (p Params) blockRows() int {
	if !p.Blocked {
		return 0
	}
	if p.BlockRows == 0 {
		return DefaultBlockRows
	}
	return p.BlockRows
}

// Buffers holds per-worker kernel scratch so the hot loops never allocate.
// Each scheduler worker owns one Buffers; they are not safe for concurrent
// use.
type Buffers struct {
	lanes int

	// 16-bit state for the intrinsic kernels. he16 is one contiguous slab
	// holding both the H and E tile arrays ((rows+1)*lanes each) so the
	// fused column steps walk a single cache-friendly block.
	he16        []int16 // intrinsic tile state, 2 * (rows+1) * lanes
	hb16, fb16  []int16 // block boundary rows, width * lanes
	f16, diag16 vec.I16 // lane temporaries
	max16       vec.I16

	// 8-bit state for the ladder's first pass.
	he8              []uint8 // intrinsic tile state, 2 * (rows+1) * lanes
	hb8, fb8         []uint8 // block boundary rows, width * lanes
	f8, diag8        vec.U8  // lane temporaries
	max8             vec.U8
	sr8              *profile.ScoreRows8
	lane16H, lane16E []int16 // 16-bit scalar recompute state, query length + 1

	// 32-bit state for the guided kernels.
	h32, e32     []int32
	hb32, fb32   []int32
	f32, max32   []int32
	diag32, up32 []int32

	// Scalar state for no-vec and overflow recomputation.
	hS, fS []int32

	sr  *profile.ScoreRows
	idx []uint8 // current column residues (lane view)

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
		lanes:  lanes,
		f16:    make(vec.I16, lanes),
		diag16: make(vec.I16, lanes),
		max16:  make(vec.I16, lanes),
		f32:    make([]int32, lanes),
		max32:  make([]int32, lanes),
		diag32: make([]int32, lanes),
		up32:   make([]int32, lanes),
		sr:     profile.NewScoreRows(lanes),
		idx:    make([]uint8, lanes),
		f8:     make(vec.U8, lanes),
		diag8:  make(vec.U8, lanes),
		max8:   make(vec.U8, lanes),
		sr8:    profile.NewScoreRows8(lanes),
	}
	return b
}

//sw:hotpath
func grow8(p *[]uint8, n int) []uint8 {
	if cap(*p) < n {
		*p = make([]uint8, n)
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
// NewBuffers(g.Lanes) for the lane kernels; no-vec ignores the lane width.
func AlignGroup(q *profile.Query, g *seqdb.LaneGroup, p Params, buf *Buffers) ([]int32, Stats) {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	switch p.Variant.Vec() {
	case VecNone:
		return alignGroupScalar(q, g, p)
	case VecGuided:
		return alignGroupGuided(q, g, p, buf)
	default:
		if p.Prec == Prec8 && q.Bias8Viable() {
			return alignGroupIntrinsic8(q, g, p, buf)
		}
		return alignGroupIntrinsic(q, g, p, buf)
	}
}
