package heterosw

import (
	"cmp"
	"fmt"

	"heterosw/internal/core"
	"heterosw/internal/device"
	"heterosw/internal/sched"
	"heterosw/internal/submat"
)

// ErrBadMatrix is the family sentinel wrapped by every rejected
// user-supplied substitution matrix (Request.Matrix, the swsearch
// -matrixfile flag, the HTTP "matrix" field): test with
// errors.Is. The three members name the specific defect — an alphabet line
// that does not match the target alphabet, a non-square or asymmetric score
// table, and scores outside the int8 range the 8-bit ladder's signed
// lanes require. A Request.Matrix sent to a distributed coordinator
// wraps the family root alone.
var (
	ErrBadMatrix         = submat.ErrBadMatrix
	ErrBadMatrixAlphabet = submat.ErrBadAlphabet
	ErrMatrixNotSquare   = submat.ErrNotSquare
	ErrMatrixScoreRange  = submat.ErrScoreRange
)

// DeviceKind names one of the modelled devices.
type DeviceKind string

const (
	// DeviceXeon is the host model: 2x Intel Xeon E5-2670, 16 cores, 32
	// hardware threads, 256-bit SIMD.
	DeviceXeon DeviceKind = "xeon"
	// DevicePhi is the coprocessor model: Intel Xeon Phi, 60 cores, 240
	// hardware threads, 512-bit SIMD, PCIe offload.
	DevicePhi DeviceKind = "phi"
)

func (k DeviceKind) model() (*device.Model, error) {
	switch k {
	case "", DeviceXeon:
		return device.Xeon(), nil
	case DevicePhi:
		return device.Phi(), nil
	}
	return nil, fmt.Errorf("heterosw: unknown device %q (have xeon, phi)", string(k))
}

// Variant names. See the paper's Section V: vectorisation mode x
// substitution-score layout. A variant is a device-model input: the planner
// (Cluster.Plan) prices each as the paper's figures do,
// while every search runs one kernel, the adaptive precision ladder — an
// 8-bit signed first pass with twice the lanes per vector word wherever the
// gap penalties fit a byte (q+r <= 127), saturated lanes escalated to 16
// and then 32 bits.
const (
	VariantNoVecQP     = "no-vec-QP"
	VariantNoVecSP     = "no-vec-SP"
	VariantGuidedQP    = "simd-QP"
	VariantGuidedSP    = "simd-SP"
	VariantIntrinsicQP = "intrinsic-QP"
	VariantIntrinsicSP = "intrinsic-SP"
)

// Variants lists the kernel variant names in the paper's order.
func Variants() []string {
	out := make([]string, 0, 6)
	for _, v := range core.Variants() {
		out = append(out, v.String())
	}
	return out
}

// Options configures a database search (the kernel options of a Cluster),
// a pairwise Align or Score, and the kernel variant the device model
// prices (Cluster.Plan). The zero value reproduces the paper's best configuration: intrinsic-SP kernels,
// BLOSUM62, gap open 10 / extend 2. The planner prices every device with
// cache blocking, dynamic scheduling and all its threads; the paper's
// sweeps over those are swbench's figures.
type Options struct {
	// Variant is the kernel variant name the planner prices
	// (VariantIntrinsicSP when empty). It must be one of Variants(), and it
	// changes nothing a search executes.
	Variant string
	// Matrix is a built-in substitution matrix name: BLOSUM45/50/62/80,
	// PAM250 or NUC (the blastn +2/-3 nucleotide scheme). When empty the
	// database alphabet's conventional default applies: BLOSUM62 for
	// protein, NUC for DNA. A custom matrix is a request's own
	// (Request.Matrix).
	Matrix string
	// GapOpen and GapExtend are the affine gap penalties q and r of the
	// paper's Eq. 5; a gap of length x costs q + r*x. Both default to the
	// paper's 10 and 2 when zero. Use NoGapDefaults to pass literal
	// zeros.
	GapOpen, GapExtend int
	// NoGapDefaults disables the 10/2 defaulting above.
	NoGapDefaults bool
}

// toCore resolves the options into the engine's, the one place the 10/2
// gap defaults are applied. The alphabet's default matrix is left to the
// engine (core.SearchOptions.Scoring).
func (o Options) toCore() (core.SearchOptions, error) {
	v, err := core.ParseVariant(cmp.Or(o.Variant, VariantIntrinsicSP))
	if err != nil {
		return core.SearchOptions{}, err
	}
	out := core.SearchOptions{
		Params:   core.Params{Variant: v, GapOpen: o.GapOpen, GapExtend: o.GapExtend, Blocked: true},
		Schedule: sched.Dynamic,
	}
	if !o.NoGapDefaults {
		out.GapOpen = cmp.Or(out.GapOpen, 10)
		out.GapExtend = cmp.Or(out.GapExtend, 2)
	}
	if o.Matrix != "" {
		// Nil otherwise: the engine applies the alphabet's default.
		out.Matrix, err = submat.ByName(o.Matrix)
	}
	return out, err
}
