// Package vec implements the fixed-width integer SIMD column kernels of the
// alignment engine in internal/core: fused column steps (step.go) that
// advance one database column of the Smith-Waterman DP across a whole query
// tile per call, in saturating 16-bit and biased unsigned 8-bit lanes, plus
// the few whole-register helpers the kernels need around them (broadcast,
// horizontal maximum) and the score-profile row build.
//
// Two backends implement the set (see dispatch.go): portable pure-Go
// loops — the verified reference, and the emulation used at widths the host
// does not have — and native assembly selected at runtime on capable amd64
// hosts, which turns the emulated registers into real 256-bit ones (AVX2)
// and, for the byte rung's StepCol8QP on hosts with AVX-512VBMI, 512-bit
// ones.
// Both produce bit-identical lane results.
//
// The lane-count emulation is semantic, not temporal: the cycle cost the
// device model (internal/device) charges a kernel comes from the structural
// counts the kernels report, independent of which backend executed the
// lanes.
package vec

import "math"

// MaxI16 and MinI16 are the saturation rails of 16-bit lanes.
const (
	MaxI16 = math.MaxInt16
	MinI16 = math.MinInt16
)

// I16 is an emulated vector register of int16 lanes. Slices are used
// rather than fixed arrays so every width shares one implementation;
// kernels allocate them with exactly the lane count they run.
type I16 []int16

// Set1 broadcasts c into every lane (vpbroadcastw).
func Set1(dst I16, c int16) {
	if native16(len(dst)) {
		set1x16(&dst[0], len(dst), int(c))
		return
	}
	set1Generic(dst, c)
}

//sw:hotpath
func set1Generic(dst I16, c int16) {
	for l := range dst {
		dst[l] = c
	}
}

// HorizontalMax returns the maximum lane value (vphmaxsw-style reduction
// tree).
func HorizontalMax(a I16) int16 {
	if native16(len(a)) {
		return hmax16(&a[0], len(a))
	}
	return horizontalMaxGeneric(a)
}

//sw:hotpath
func horizontalMaxGeneric(a I16) int16 {
	m := a[0]
	for _, v := range a[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// ---- 8-bit unsigned lanes ----
//
// The 8-bit first pass of the precision ladder scores in unsigned byte
// lanes with biased substitution scores, the SSW Library's representation:
// a register holds twice as many lanes as the 16-bit form, H/E/F values are
// true non-negative cell values in [0, 255], and substitution scores are
// stored as score+bias so the per-cell add is a single unsigned saturating
// add followed by an unsigned saturating subtract of the bias. Saturation of
// the top rail marks a lane for 16-bit recomputation.

// MaxU8 is the top saturation rail of unsigned 8-bit lanes.
const MaxU8 = 255

// U8 is an emulated vector register of unsigned 8-bit lanes, the element
// type of the ladder's first pass.
type U8 []uint8

// Set1U8 broadcasts c into every lane (vpbroadcastb).
func Set1U8(dst U8, c uint8) {
	if native8(len(dst)) {
		set1U8x(&dst[0], len(dst), int(c))
		return
	}
	set1U8Generic(dst, c)
}

func set1U8Generic(dst U8, c uint8) {
	for l := range dst {
		dst[l] = c
	}
}
