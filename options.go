package heterosw

import (
	"fmt"
	"strings"

	"heterosw/internal/alphabet"
	"heterosw/internal/core"
	"heterosw/internal/device"
	"heterosw/internal/sched"
	"heterosw/internal/submat"
)

// ErrBadMatrix is the family sentinel wrapped by every rejected
// user-supplied substitution matrix (Options.MatrixText, Request.Matrix,
// the swsearch -matrixfile flag, the HTTP "matrix" field): test with
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

// DeviceInfo describes a modelled device.
type DeviceInfo struct {
	Kind     DeviceKind
	Name     string
	Cores    int
	Threads  int
	Lanes    int
	TDPWatts float64
}

// Devices lists the modelled devices.
func Devices() []DeviceInfo {
	out := make([]DeviceInfo, 0, 2)
	for _, k := range []DeviceKind{DeviceXeon, DevicePhi} {
		m, _ := k.model()
		out = append(out, DeviceInfo{
			Kind: k, Name: m.Name, Cores: m.Cores,
			Threads: m.MaxThreads(), Lanes: m.Lanes, TDPWatts: m.TDPWatts,
		})
	}
	return out
}

// Variant names. See the paper's Section V: vectorisation mode x
// substitution-score layout. A variant is a device-model input: the planner
// (Database.Simulate, Cluster.Plan) prices each as the paper's figures do,
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

// Options configures a database search (the kernel options of a Cluster)
// and what the device model assumes when it prices one (Database.Simulate,
// Cluster.Plan). The zero value reproduces the paper's best configuration:
// intrinsic-SP kernels with blocking, BLOSUM62, gap open 10 / extend 2,
// dynamic scheduling, all device threads.
type Options struct {
	// Device is the modelled device Database.Simulate prices (DeviceXeon
	// when empty); a Cluster ignores it.
	Device DeviceKind
	// Variant is the kernel variant name the planner prices
	// (VariantIntrinsicSP when empty). It must be one of Variants(), and it
	// changes nothing a search executes.
	Variant string
	// Matrix is a built-in substitution matrix name: BLOSUM45/50/62/80,
	// PAM250 or NUC (the blastn +2/-3 nucleotide scheme). When empty the
	// database alphabet's conventional default applies: BLOSUM62 for
	// protein, NUC for DNA.
	Matrix string
	// MatrixText, when non-empty, supplies a custom substitution matrix in
	// the NCBI textual format, parsed against the database's alphabet. It
	// overrides Matrix. Parse failures wrap ErrBadMatrix.
	MatrixText string
	// GapOpen and GapExtend are the affine gap penalties q and r of the
	// paper's Eq. 5; a gap of length x costs q + r*x. Both default to the
	// paper's 10 and 2 when zero. Use NoGapDefaults to pass literal
	// zeros.
	GapOpen, GapExtend int
	// NoGapDefaults disables the 10/2 defaulting above.
	NoGapDefaults bool
	// NoBlocking, BlockRows, Threads, Schedule and ChunkSize are inputs of
	// the device model only, as Variant is; a search executes the same
	// whatever they say.
	//
	// NoBlocking disables the model's cache-blocking optimisation (Figure
	// 7's "non-blocking" curves; the real kernels size their query tiles
	// for the host) and BlockRows overrides its tile height (256 when
	// zero). Threads is the modelled device's thread count (device maximum
	// when zero), Schedule its OpenMP loop policy — "dynamic" (default),
	// "static" or "guided" — and ChunkSize the scheduling chunk (1 when
	// zero).
	NoBlocking bool
	BlockRows  int
	Threads    int
	Schedule   string
	ChunkSize  int
	// Workers caps the host goroutines of a search (GOMAXPROCS when
	// zero).
	Workers int
	// TopK truncates the hit list (all hits when zero).
	TopK int
	// LongSeqThreshold routes subjects longer than this to the intra-task
	// kernel (3072 when zero; negative disables routing).
	LongSeqThreshold int
}

// toCore resolves the options against the target database's alphabet,
// which governs the default matrix and the alphabet custom matrix text is
// parsed under.
func (o Options) toCore(alpha *alphabet.Alphabet) (core.SearchOptions, error) {
	out := core.SearchOptions{
		Threads:          o.Threads,
		ChunkSize:        o.ChunkSize,
		Workers:          o.Workers,
		TopK:             o.TopK,
		LongSeqThreshold: o.LongSeqThreshold,
	}
	variant := o.Variant
	if variant == "" {
		variant = VariantIntrinsicSP
	}
	v, err := core.ParseVariant(variant)
	if err != nil {
		return out, err
	}
	var m *submat.Matrix
	switch {
	case o.MatrixText != "":
		m, err = submat.Parse("custom", strings.NewReader(o.MatrixText), alpha)
	case o.Matrix != "":
		m, err = submat.ByName(o.Matrix)
	default:
		// Leave nil: the engine applies the alphabet's default
		// (BLOSUM62 for protein, NUC for DNA).
	}
	if err != nil {
		return out, err
	}
	schedule := o.Schedule
	if schedule == "" {
		schedule = "dynamic"
	}
	pol, err := sched.ParsePolicy(schedule)
	if err != nil {
		return out, err
	}
	gapOpen, gapExtend := o.GapOpen, o.GapExtend
	if !o.NoGapDefaults {
		if gapOpen == 0 {
			gapOpen = 10
		}
		if gapExtend == 0 {
			gapExtend = 2
		}
	}
	out.Params = core.Params{
		Variant:   v,
		GapOpen:   gapOpen,
		GapExtend: gapExtend,
		Blocked:   !o.NoBlocking,
		BlockRows: o.BlockRows,
	}
	out.Matrix = m
	out.Schedule = pol
	return out, nil
}
