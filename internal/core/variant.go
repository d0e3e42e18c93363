// Package core implements the paper's contribution: the portable
// Smith-Waterman database-search engine evaluated on the Xeon and Xeon Phi
// models. It executes one kernel, the 8 -> 16 -> 32-bit precision ladder
// (byte lanes with an in-register query profile, 16-bit score-profile lanes,
// 32-bit scalar recomputation, and a striped 16-bit pass for long subjects),
// in the single-device search of Algorithm 1. The six kernel variants of
// Section V ({no-vec, guided-simd, intrinsic} x {query profile, score
// profile}) are labels the device model (internal/model) prices, along
// with the heterogeneous distributions of Algorithm 2; no search reads
// them.
package core

import "fmt"

// VecMode is how the paper's inner loop is vectorised, matching the three
// columns of its figures; the device model prices each.
type VecMode int

const (
	// VecNone is the scalar baseline ("no-vec"): one database sequence at
	// a time, plain integer arithmetic.
	VecNone VecMode = iota
	// VecGuided models compiler-driven vectorisation (#pragma omp simd):
	// lane loops over 32-bit integers, the code shape a compiler emits
	// from portable source.
	VecGuided
	// VecIntrinsic models hand-tuned vectorisation: explicit fixed-width
	// saturating vector operations, byte lanes first where the matrix and
	// the lane width allow, saturated lanes escalated to 16 and then 32
	// bits.
	VecIntrinsic
)

// ProfMode is the paper's substitution-score layout (Section IV), priced by
// the device model.
type ProfMode int

const (
	// ProfQuery uses the query profile: built once per query, indexed by
	// each lane's database residue (gather access pattern).
	ProfQuery ProfMode = iota
	// ProfScore uses the score profile (the paper's "sequence profile"):
	// rebuilt per database column, loaded contiguously by the inner loop.
	ProfScore
)

// Variant is one of the six algorithm variants evaluated by the paper: an
// input of the planner, which prices it; every search runs the ladder.
type Variant int

const (
	NoVecQP Variant = iota
	NoVecSP
	GuidedQP
	GuidedSP
	IntrinsicQP
	IntrinsicSP
	numVariants
)

// Variants lists all variants in the order the paper's figures plot them.
func Variants() []Variant {
	return []Variant{NoVecQP, NoVecSP, GuidedQP, GuidedSP, IntrinsicQP, IntrinsicSP}
}

// Vec returns the variant's vectorisation mode.
func (v Variant) Vec() VecMode {
	switch v {
	case NoVecQP, NoVecSP:
		return VecNone
	case GuidedQP, GuidedSP:
		return VecGuided
	default:
		return VecIntrinsic
	}
}

// Prof returns the variant's profile mode.
func (v Variant) Prof() ProfMode {
	switch v {
	case NoVecQP, GuidedQP, IntrinsicQP:
		return ProfQuery
	default:
		return ProfScore
	}
}

// String returns the paper's label for the variant, e.g. "intrinsic-SP".
func (v Variant) String() string {
	switch v {
	case NoVecQP:
		return "no-vec-QP"
	case NoVecSP:
		return "no-vec-SP"
	case GuidedQP:
		return "simd-QP"
	case GuidedSP:
		return "simd-SP"
	case IntrinsicQP:
		return "intrinsic-QP"
	case IntrinsicSP:
		return "intrinsic-SP"
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// ParseVariant converts a paper-style label (as printed by String) back to
// a Variant.
func ParseVariant(s string) (Variant, error) {
	for _, v := range Variants() {
		if v.String() == s {
			return v, nil
		}
	}
	return 0, fmt.Errorf("core: unknown variant %q", s)
}
