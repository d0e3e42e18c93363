// Package vec implements the fixed-width integer SIMD kernels of the
// alignment engine in internal/core (step.go): the 16-bit rung's fused
// column steps, which advance one database column of the Smith-Waterman DP
// across a whole query tile per call in saturating 16-bit lanes, and the
// byte rung's sweep, which advances a whole query tile across every column
// of a lane group per call in signed 8-bit lanes; plus the few
// whole-register helpers the kernels need around them (broadcast,
// horizontal maximum) and the score-profile row build.
//
// Two backends implement the set (see dispatch.go): portable pure-Go
// loops — the verified reference, and the emulation used at widths the host
// does not have — and native assembly selected at runtime on capable amd64
// hosts, which turns the emulated registers into real 256-bit ones (AVX2)
// and, for the byte rung's Sweep8QP on hosts with AVX-512VBMI, 512-bit
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

// ---- 8-bit signed lanes ----
//
// The 8-bit first pass of the precision ladder scores in signed byte lanes,
// twice as many per register as the 16-bit form. H, E and F are stored
// offset by -128: a lane holding v means the cell value v+128, in
// [0, 255]. Substitution scores are the matrix's own int8 values, so the
// per-cell add is one signed saturating add, whose floor at MinI8 is the
// Smith-Waterman clamp at zero and whose top rail, MaxI8 (a cell of 255),
// marks a lane for 16-bit recomputation.

// MinI8 and MaxI8 are the saturation rails of signed 8-bit lanes: the cell
// values 0 and 255 of the offset representation.
const (
	MinI8 = math.MinInt8
	MaxI8 = math.MaxInt8
)

// I8 is an emulated vector register of signed 8-bit lanes, the element
// type of the ladder's first pass.
type I8 []int8

// Set1I8 broadcasts c into every lane (vpbroadcastb): how the byte rung
// fills its tile state with the MinI8 floor.
func Set1I8(dst I8, c int8) {
	if native8(len(dst)) {
		set1x8(&dst[0], len(dst), int(c))
		return
	}
	set1I8Generic(dst, c)
}

func set1I8Generic(dst I8, c int8) {
	for l := range dst {
		dst[l] = c
	}
}

// ---- 8-bit unsigned lanes ----
//
// The biased unsigned byte form the SSW Library uses, which only
// StepCol8SP still computes: H/E/F are true cell values in [0, 255] and
// substitution scores are stored as score+bias, so the per-cell add is an
// unsigned saturating add followed by an unsigned saturating subtract of
// the bias.

// MaxU8 is the top saturation rail of unsigned 8-bit lanes.
const MaxU8 = 255

// U8 is an emulated vector register of unsigned 8-bit lanes.
type U8 []uint8
