// Package core implements the paper's contribution: the portable
// Smith-Waterman database-search engine evaluated on the Xeon and Xeon Phi
// models. It provides the six kernel variants of Section V ({no-vec,
// guided-simd, intrinsic} x {query profile, score profile}), the intrinsic
// kernels' 8 -> 16 -> 32-bit precision ladder, the single-device search of
// Algorithm 1 and the heterogeneous search of Algorithm 2.
package core

import "fmt"

// VecMode selects how the inner loop is (emulated-)vectorised, matching the
// three columns of the paper's figures.
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

// ProfMode selects the substitution-score layout (Section IV).
type ProfMode int

const (
	// ProfQuery uses the query profile: built once per query, indexed by
	// each lane's database residue (gather access pattern).
	ProfQuery ProfMode = iota
	// ProfScore uses the score profile (the paper's "sequence profile"):
	// rebuilt per database column, loaded contiguously by the inner loop.
	ProfScore
)

// Variant is one of the six algorithm variants evaluated by the paper.
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
