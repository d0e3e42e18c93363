package vec

import (
	"os"
	"sync/atomic"
)

// Backend selection. The package ships the portable pure-Go loops (the
// verified reference, and the only implementation on non-amd64 hosts or
// under the purego build tag) and hand-written assembly in vec_amd64.s,
// in tiers ordered so that a host that runs one runs every tier below it:
//
//	portable   pure Go
//	avx2       every kernel and helper over 256-bit registers
//	avx2+vbmi  the same, except that Sweep8QP, the byte rung's kernel,
//	           runs over 512-bit registers: 64 byte lanes per zmm, the
//	           profile row looked up with one vpermb instead of a vpshufb
//	           pair, and three of each row's maxes as a compare into an
//	           opmask plus a masked blend (AVX-512F/BW/VL/VBMI)
//
// The highest tier the host supports (CPUID + XGETBV, checked once at
// process start) is selected per call when
//
//   - the binary was built with the native backend compiled in
//     (GOARCH=amd64 and no purego tag),
//   - no lower cap is set (HETEROSW_VEC=portable or =avx2 in the
//     environment, or CapTier from a test), and
//   - the lane count is a whole number of 256-bit registers (16 int16 or
//     32 byte lanes); odd widths always take the portable loops. On
//     avx2+vbmi, Sweep8QP runs its zmm body at whole zmm registers (64
//     byte lanes) and the avx2 body at the other multiples of 32.
//
// The tiers are lane-exact: every assembly routine computes the same
// saturating two's-complement results as the Go reference, so kernel
// output is byte-identical whichever is selected. That property is pinned
// by the differential tests in this package, by core's FuzzKernelParity
// (which replays the intrinsic kernels under every tier the host runs) and
// by the repository's cross-backend conformance test.

// Tier identifies a backend tier.
type Tier int32

const (
	TierPortable Tier = iota
	TierAVX2
	TierVBMI
)

var tierNames = [...]string{"portable", "avx2", "avx2+vbmi"}

func (t Tier) String() string { return tierNames[t] }

// EnvTier is the environment variable consulted once at process start:
// HETEROSW_VEC=portable forces the pure-Go backend and HETEROSW_VEC=avx2
// stops at the AVX2 tier, whatever the host supports (benchmark baselines,
// CI legs for the tiers below the runner's own).
const EnvTier = "HETEROSW_VEC"

var (
	// hostTier is fixed at init: the highest tier the binary has compiled
	// in and the host CPU+OS can execute.
	hostTier Tier
	// tierCap is the runtime override. Atomic so tests can switch tiers
	// while kernels run on other goroutines (conformance and parity
	// tests); reads on the hot path are plain loads on amd64.
	tierCap atomic.Int32
)

func init() {
	if asmSupported {
		hostTier = detectTier()
	}
	tierCap.Store(int32(TierVBMI))
	env := os.Getenv(EnvTier)
	for t, name := range tierNames {
		if env == name {
			tierCap.Store(int32(t))
		}
	}
}

// tier returns the tier selected right now.
func tier() Tier { return min(hostTier, Tier(tierCap.Load())) }

// native16 reports whether a call over n int16 lanes dispatches to the
// assembly. With asmSupported a compile-time false (non-amd64 or purego),
// the whole test folds away.
func native16(n int) bool { return asmSupported && n >= 16 && n&15 == 0 && Native() }

// native8 is native16 for byte lanes (32 per 256-bit register).
func native8(n int) bool { return asmSupported && n >= 32 && n&31 == 0 && Native() }

// zmm8 reports whether a native Sweep8QP call over n byte lanes runs
// the avx2+vbmi tier's 512-bit body: the tier is selected and n is a whole
// number of zmm registers.
func zmm8(n int) bool { return n&63 == 0 && tier() == TierVBMI }

// byteWidth is the uint8 lane count of one register of tier t's byte
// kernel: a zmm on avx2+vbmi, a ymm on avx2, none for the portable loops.
func byteWidth(t Tier) int { return [...]int{0, 32, 64}[t] }

// Native reports whether an assembly tier is currently selected for
// register-width lane counts.
func Native() bool { return tier() != TierPortable }

// Backend names the currently selected tier: "portable", "avx2" or
// "avx2+vbmi".
func Backend() string { return tier().String() }

// Tiers lists the tiers selectable right now, lowest first up to the
// selected one, for tests and benchmarks that replay a kernel under each
// (a process started under HETEROSW_VEC never runs a tier above it).
func Tiers() []Tier {
	return []Tier{TierPortable, TierAVX2, TierVBMI}[:tier()+1]
}

// CapTier caps the selected tier at runtime and returns the previous cap,
// so tests can restore it:
//
//	defer vec.CapTier(vec.CapTier(vec.TierPortable))
//
// A cap only ever lowers the selection: capping above what the host
// supports runs the host's own tier.
func CapTier(t Tier) Tier { return Tier(tierCap.Swap(int32(t))) }

// BackendInfo describes the selected vector backend, for surfacing in
// health endpoints and benchmark artifacts so performance numbers are
// attributable to real or emulated lanes.
type BackendInfo struct {
	// Backend is the tier that runs: "portable", "avx2" or "avx2+vbmi".
	Backend string `json:"backend"`
	// AVX2 reports host capability (true even when a cap masks it).
	AVX2 bool `json:"avx2"`
	// Forced reports an active cap below the host's tier (env var or
	// CapTier).
	Forced bool `json:"forced"`
	// Lanes16 and Lanes8 are the native register lane counts the selected
	// backend executes per instruction: 16 int16 lanes (a ymm) under both
	// assembly tiers; 32 byte lanes (a ymm) under avx2 and 64 (a zmm)
	// under avx2+vbmi, the byte width the host packs its lane groups for;
	// 0 for the portable loops (which have no fixed hardware width).
	Lanes16 int `json:"lanes16"`
	Lanes8  int `json:"lanes8"`
}

// Info snapshots the backend selection.
func Info() BackendInfo {
	t := tier()
	info := BackendInfo{
		Backend: t.String(),
		AVX2:    hostTier >= TierAVX2,
		Forced:  t < hostTier,
	}
	if t != TierPortable {
		info.Lanes16, info.Lanes8 = 16, byteWidth(t)
	}
	return info
}

// String renders the selection as a one-line summary for startup logs. A
// cap below the host's tier is named, so a number read under it is not
// attributed to the host's own tier.
func (b BackendInfo) String() string {
	switch {
	case b.Backend == TierVBMI.String():
		return "avx2+vbmi (16x int16 lanes per ymm; 64x uint8 lanes per zmm; vpermb byte lookup)"
	case b.Backend == TierAVX2.String() && b.Forced:
		return "avx2 (16x int16 / 32x uint8 lanes per register; avx2+vbmi available but capped)"
	case b.Backend == TierAVX2.String():
		return "avx2 (16x int16 / 32x uint8 lanes per register)"
	case b.Forced:
		return "portable (pure Go; avx2 available but overridden)"
	default:
		return "portable (pure Go; host lacks AVX2 or binary built without it)"
	}
}
