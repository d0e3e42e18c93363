//go:build amd64 && !purego

package vec

// asmSupported marks binaries with the assembly backend compiled in; the
// runtime CPU check still gates execution.
const asmSupported = true

// detectTier reports the highest tier the host CPU and OS can execute.
// AVX2: CPUID advertises AVX2 and OSXSAVE, and XGETBV confirms the OS
// saves the full YMM state on context switch. VBMI on top of that:
// AVX512F/BW/VL/VBMI, and the OS saves opmask and ZMM state too — an
// EVEX-encoded instruction faults without it even when, as here, it only
// touches ymm registers.
func detectTier() Tier {
	maxLeaf, _, _, _ := cpuidex(0, 0)
	if maxLeaf < 7 {
		return TierPortable
	}
	_, _, ecx1, _ := cpuidex(1, 0)
	const (
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return TierPortable
	}
	xcr0, _ := xgetbv0()
	if xcr0&0x6 != 0x6 { // XMM and YMM state enabled by the OS
		return TierPortable
	}
	_, ebx7, ecx7, _ := cpuidex(7, 0)
	if ebx7&(1<<5) == 0 { // AVX2
		return TierPortable
	}
	const avx512FBWVL = 1<<16 | 1<<30 | 1<<31
	if ebx7&avx512FBWVL != avx512FBWVL || ecx7&(1<<1) == 0 || xcr0&0xE6 != 0xE6 {
		return TierAVX2
	}
	return TierVBMI
}

// cpuidex executes CPUID with the given leaf and subleaf.
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads extended control register 0 (requires OSXSAVE).
func xgetbv0() (eax, edx uint32)

// ---- whole-register helpers ----
//
// All stubs require n to be a positive multiple of 16 (int16) or 32
// (uint8); the exported wrappers in vec.go enforce that before
// dispatching.

//go:noescape
func set1x16(dst *int16, n, c int)

//go:noescape
func hmax16(a *int16, n int) int16

//go:noescape
func set1x8(dst *int8, n, c int)

// ---- fused kernels ----
//
// One call of a column step advances a whole database column of the
// inter-task DP across every row of the current query tile, so the call
// cost amortises over rows x lanes cells; F, the diagonal and the score
// tracker stay in registers for the entire column. One call of a sweep
// advances the tile across every column of the lane group, so they stay
// in registers for the whole tile and the call cost amortises over
// columns x rows x lanes cells. See step.go for the layout contracts and
// the portable reference semantics.

//go:noescape
func stepCol16SP(h, e, f, diag, maxv *int16, score *int16, seq *uint8, rows, lanes, qr, r int)

//go:noescape
func stepCol8SP(h, e, f, diag, maxv *uint8, score *uint8, seq *uint8, rows, lanes, bias, qr, r int)

//go:noescape
func sweep8QP(h, e, hb, fb, maxv *int8, qp *int8, stride int, cols *uint8, ncols, rows, lanes, qr, r int, first, last bool)

//go:noescape
func sweep8QPVBMI(h, e, hb, fb, maxv *int8, qp *int8, stride int, cols *uint8, ncols, rows, lanes, qr, r int, first, last bool)

//go:noescape
func buildRows16(dst, table *int16, idx *uint8, nrows, lanes, stride int)
