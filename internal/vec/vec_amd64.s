//go:build amd64 && !purego

// AVX2 backend for the fused kernels and their whole-register helpers,
// plus the one routine of the avx2+vbmi tier (sweep8QPVBMI, the signed
// byte query-profile sweep over 512-bit registers, whose header gives its
// per-row port budget).
//
// Every routine computes bit-identical results to the portable Go loops in
// vec.go / step.go; the differential tests in this package and core's
// kernel parity fuzzing pin that equivalence. Callers (the Go wrappers)
// guarantee n is a positive multiple of 16 for int16 routines and 32 for
// byte routines, and that gathered tables carry the documented spare
// capacity, so no tail or bounds handling appears here.
//
// VEX-only rule: every instruction that names an X, Y or Z register is
// VEX- (or EVEX-) encoded — VMOVQ, never MOVQ, between a general register
// and an xmm — and every routine that touches a ymm, zmm or opmask
// register executes VZEROUPPER before it returns. Go assembles
// MOVQ AX, X3 to the legacy-SSE form, and a legacy-SSE instruction after a
// ymm write in the same routine costs ~172 ns on the benchmarks' Sapphire
// Rapids Xeon (VMOVQ: 1.5 ns), more than a 120-row column's arithmetic.
// TestAsmVEXClean enforces both halves of the rule.
//
// Plan 9 operand order reminders (reversed from Intel syntax):
//   VPSUBSW  Yb, Ya, Yd      d = a - b
//   VPSHUFB  Yctl, Ysrc, Yd  d = shuffle(src, ctl)
//   VPBLENDVB Ym, Yb, Ya, Yd d = m ? b : a
//   VPERMB   Ztbl, Zidx, Zd  d[i] = tbl[idx[i] & 63]
//   VPCMPB   $6, Zb, Za, Kd  k[i] = (a[i] > b[i]), signed
//   VPBLENDMB Zb, Za, Km, Zd d = m ? b : a
//   VPACKUSDW Yb, Ya, Yd     per 128-bit lane: [a words, b words]

#include "textflag.h"

// func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// ---- whole-register helpers ----

// func set1x16(dst *int16, n, c int)
TEXT ·set1x16(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ c+16(FP), AX
	VMOVQ AX, X0
	VPBROADCASTW X0, Y0
	SHLQ $1, CX
	XORQ AX, AX
loop:
	VMOVDQU Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     loop
	VZEROUPPER
	RET

// func hmax16(a *int16, n int) int16
TEXT ·hmax16(SB), NOSPLIT, $0-18
	MOVQ a+0(FP), SI
	MOVQ n+8(FP), CX
	SHLQ $1, CX
	VMOVDQU (SI), Y0
	MOVQ $32, AX
	JMP  cond
loop:
	VPMAXSW (SI)(AX*1), Y0, Y0
	ADDQ    $32, AX
cond:
	CMPQ AX, CX
	JLT  loop
	VEXTRACTI128 $1, Y0, X1
	VPMAXSW X1, X0, X0
	VPSHUFD $0x4E, X0, X1
	VPMAXSW X1, X0, X0
	VPSHUFD $0xB1, X0, X1
	VPMAXSW X1, X0, X0
	VPSRLD  $16, X0, X1
	VPMAXSW X1, X0, X0
	VMOVQ   X0, AX
	MOVW    AX, ret+16(FP)
	VZEROUPPER
	RET

// func set1x8(dst *int8, n, c int)
TEXT ·set1x8(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ c+16(FP), AX
	VMOVQ AX, X0
	VPBROADCASTB X0, Y0
	XORQ AX, AX
loop:
	VMOVDQU Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     loop
	VZEROUPPER
	RET

// ---- fused kernels ----

// func stepCol16SP(h, e, f, diag, maxv *int16, score *int16, seq *uint8, rows, lanes, qr, r int)
//
// Register plan per 16-lane strip: Y0 diag, Y1 F, Y2 maxv, Y3 qr, Y4 r,
// Y5 zero, Y6 H/score, Y7 up, Y8 E. DI/SI walk the h/e tile rows, R8 is
// the strip's score-table base (row selected by seq byte * row stride).
TEXT ·stepCol16SP(SB), NOSPLIT, $0-88
	MOVQ lanes+64(FP), R10
	SHLQ $1, R10              // row stride in bytes
	MOVQ qr+72(FP), AX
	VMOVQ AX, X3
	VPBROADCASTW X3, Y3
	MOVQ r+80(FP), AX
	VMOVQ AX, X4
	VPBROADCASTW X4, Y4
	VPXOR Y5, Y5, Y5
	XORQ  R11, R11            // strip byte offset
strip:
	MOVQ diag+24(FP), AX
	VMOVDQU (AX)(R11*1), Y0
	MOVQ f+16(FP), AX
	VMOVDQU (AX)(R11*1), Y1
	MOVQ maxv+32(FP), AX
	VMOVDQU (AX)(R11*1), Y2
	MOVQ h+0(FP), DI
	ADDQ R11, DI
	MOVQ e+8(FP), SI
	ADDQ R11, SI
	MOVQ score+40(FP), R8
	ADDQ R11, R8
	MOVQ seq+48(FP), DX
	MOVQ rows+56(FP), R9
rowloop:
	MOVBQZX (DX), BX
	INCQ    DX
	IMULQ   R10, BX
	VMOVDQU (R8)(BX*1), Y6    // score row for this query residue
	VPADDSW Y0, Y6, Y6        // diag + score, saturating
	VMOVDQU (DI), Y7          // up (previous column's H)
	VMOVDQU (SI), Y8          // E
	VPMAXSW Y8, Y6, Y6
	VPMAXSW Y1, Y6, Y6
	VPMAXSW Y5, Y6, Y6        // clamp at zero
	VPMAXSW Y6, Y2, Y2        // score tracker
	VMOVDQU Y6, (DI)
	VPSUBSW Y3, Y6, Y6        // uv = H - qr
	VPSUBSW Y4, Y8, Y8        // E - r
	VPMAXSW Y6, Y8, Y8
	VMOVDQU Y8, (SI)
	VPSUBSW Y4, Y1, Y1        // F - r
	VPMAXSW Y6, Y1, Y1
	VMOVDQA Y7, Y0            // diag carries down the column
	ADDQ    R10, DI
	ADDQ    R10, SI
	DECQ    R9
	JNZ     rowloop
	MOVQ diag+24(FP), AX
	VMOVDQU Y0, (AX)(R11*1)
	MOVQ f+16(FP), AX
	VMOVDQU Y1, (AX)(R11*1)
	MOVQ maxv+32(FP), AX
	VMOVDQU Y2, (AX)(R11*1)
	ADDQ $32, R11
	CMPQ R11, R10
	JLT  strip
	VZEROUPPER
	RET

// func stepCol8SP(h, e, f, diag, maxv *uint8, score *uint8, seq *uint8, rows, lanes, bias, qr, r int)
//
// The biased unsigned-byte pass: saturating add of the biased score, then
// a saturating subtract of the bias floors the cell at zero. Y9 holds the
// broadcast bias; otherwise the register plan mirrors stepCol16SP over 32
// byte lanes.
TEXT ·stepCol8SP(SB), NOSPLIT, $0-96
	MOVQ lanes+64(FP), R10    // row stride in bytes
	MOVQ bias+72(FP), AX
	VMOVQ AX, X9
	VPBROADCASTB X9, Y9
	MOVQ qr+80(FP), AX
	VMOVQ AX, X3
	VPBROADCASTB X3, Y3
	MOVQ r+88(FP), AX
	VMOVQ AX, X4
	VPBROADCASTB X4, Y4
	XORQ R11, R11             // strip byte offset
strip:
	MOVQ diag+24(FP), AX
	VMOVDQU (AX)(R11*1), Y0
	MOVQ f+16(FP), AX
	VMOVDQU (AX)(R11*1), Y1
	MOVQ maxv+32(FP), AX
	VMOVDQU (AX)(R11*1), Y2
	MOVQ h+0(FP), DI
	ADDQ R11, DI
	MOVQ e+8(FP), SI
	ADDQ R11, SI
	MOVQ score+40(FP), R8
	ADDQ R11, R8
	MOVQ seq+48(FP), DX
	MOVQ rows+56(FP), R9
rowloop:
	MOVBQZX  (DX), BX
	INCQ     DX
	IMULQ    R10, BX
	VMOVDQU  (R8)(BX*1), Y6   // biased score row
	VPADDUSB Y0, Y6, Y6       // diag + biased score, saturating
	VPSUBUSB Y9, Y6, Y6       // remove bias, floor at zero
	VMOVDQU  (DI), Y7         // up
	VMOVDQU  (SI), Y8         // E
	VPMAXUB  Y8, Y6, Y6
	VPMAXUB  Y1, Y6, Y6
	VPMAXUB  Y6, Y2, Y2
	VMOVDQU  Y6, (DI)
	VPSUBUSB Y3, Y6, Y6       // uv = H - qr, floored
	VPSUBUSB Y4, Y8, Y8
	VPMAXUB  Y6, Y8, Y8
	VMOVDQU  Y8, (SI)
	VPSUBUSB Y4, Y1, Y1
	VPMAXUB  Y6, Y1, Y1
	VMOVDQA  Y7, Y0
	ADDQ     R10, DI
	ADDQ     R10, SI
	DECQ     R9
	JNZ      rowloop
	MOVQ diag+24(FP), AX
	VMOVDQU Y0, (AX)(R11*1)
	MOVQ f+16(FP), AX
	VMOVDQU Y1, (AX)(R11*1)
	MOVQ maxv+32(FP), AX
	VMOVDQU Y2, (AX)(R11*1)
	ADDQ $32, R11
	CMPQ R11, R10
	JLT  strip
	VZEROUPPER
	RET

// func sweep8QP(h, e, hb, fb, maxv *int8, qp *int8, stride int, cols *uint8, ncols, rows, lanes, qr, r int, first, last bool)
//
// The signed byte sweep over 32-lane ymm strips: each strip runs every
// column of the tile in turn, so the tracker (Y2) is loaded and stored once
// per strip. H/E/F are cell values offset by -128, so one saturating
// vpaddsb of the plain score both adds and, at its -128 floor (Y5), clamps
// at zero. Byte gather as an in-register table permute: the profile row's
// 32 bytes are loaded as two 16-byte halves broadcast to both 128-bit
// lanes (VBROADCASTI128, reading up to 32 bytes from the row start —
// wrapper-checked spare capacity), then vpshufb looks up idx in the low
// half and idx-16 in the high half (indices with the sign bit set shuffle
// to zero), and vpblendvb takes the low lookup where idx-16 has its sign
// bit set. Y10 idx and Y11 idx-16 are per column. The up value loads
// straight into Y0 once the add has consumed the diagonal, so no register
// move carries it down the column, and uv goes to Y7 so Y6 leaves the row
// loop holding the last row's H for the seam. The seam (see step.go): F
// (Y1) enters each column from fb, or at the floor on the first tile, and
// Y9 holds hb's old value, the next column's diagonal, while the last
// row's H and F overwrite it. The row loop is 98 bytes: aligned, it sits
// in two 64-byte fetch lines wherever the linker puts the function (three
// cost 9% on the reference host); the zmm body's is 125.
TEXT ·sweep8QP(SB), NOSPLIT, $0-106
	MOVQ lanes+80(FP), R10    // row and column stride in bytes
	MOVQ stride+48(FP), R12   // profile row stride in bytes
	MOVQ qr+88(FP), AX
	VMOVQ AX, X3
	VPBROADCASTB X3, Y3
	MOVQ r+96(FP), AX
	VMOVQ AX, X4
	VPBROADCASTB X4, Y4
	MOVQ $0x80, AX
	VMOVQ AX, X5
	VPBROADCASTB X5, Y5       // the floor, MinI8
	MOVQ $0x1010101010101010, AX
	VMOVQ AX, X12
	VPBROADCASTQ X12, Y12
	XORQ R11, R11             // strip byte offset
strip:
	MOVQ maxv+32(FP), AX
	VMOVDQU (AX)(R11*1), Y2
	VMOVDQA Y5, Y0            // column 0's diagonal
	MOVQ R11, DX              // the column's strip offset in cols, hb and fb
	MOVQ ncols+64(FP), CX
column:
	MOVQ cols+56(FP), AX
	VMOVDQU (AX)(DX*1), Y10   // residue indices, one byte per lane
	VPSUBB Y12, Y10, Y11      // idx - 16 (sign bit set for idx < 16)
	VMOVDQA Y5, Y1
	VMOVDQA Y5, Y9
	CMPB first+104(FP), $0
	JNE  rows
	MOVQ fb+24(FP), AX
	VMOVDQU (AX)(DX*1), Y1    // F entering the tile's first row
	MOVQ hb+16(FP), AX
	VMOVDQU (AX)(DX*1), Y9    // H above the tile: the next column's diagonal
rows:
	MOVQ h+0(FP), DI
	ADDQ R11, DI
	MOVQ e+8(FP), SI
	ADDQ R11, SI
	MOVQ qp+40(FP), R8
	MOVQ rows+72(FP), R9
	PCALIGN $64
rowloop:
	VBROADCASTI128 (R8), Y13  // profile row bytes 0-15 in both lanes
	VBROADCASTI128 16(R8), Y14 // bytes 16-31 (over-read past row end)
	VPSHUFB   Y10, Y13, Y13   // low-half lookup
	VPSHUFB   Y11, Y14, Y14   // high-half lookup
	VPBLENDVB Y11, Y13, Y14, Y6
	VPADDSB  Y0, Y6, Y6       // H = diag + score, floored at zero
	VMOVDQU  (DI), Y0         // up: the next row's diagonal
	VMOVDQU  (SI), Y8         // E
	VPMAXSB  Y8, Y6, Y6
	VPMAXSB  Y1, Y6, Y6
	VPMAXSB  Y6, Y2, Y2       // score tracker
	VMOVDQU  Y6, (DI)
	VPSUBSB  Y3, Y6, Y7       // uv = H - qr, floored
	VPSUBSB  Y4, Y8, Y8
	VPMAXSB  Y7, Y8, Y8
	VMOVDQU  Y8, (SI)
	VPSUBSB  Y4, Y1, Y1
	VPMAXSB  Y7, Y1, Y1
	ADDQ     R12, R8          // next query-profile row
	ADDQ     R10, DI
	ADDQ     R10, SI
	DECQ     R9
	JNZ      rowloop
	CMPB last+105(FP), $0
	JNE  next
	MOVQ hb+16(FP), AX
	VMOVDQU Y6, (AX)(DX*1)    // the last row's H and F, for the tile below
	MOVQ fb+24(FP), AX
	VMOVDQU Y1, (AX)(DX*1)
next:
	VMOVDQA Y9, Y0
	ADDQ R10, DX
	DECQ CX
	JNZ  column
	MOVQ maxv+32(FP), AX
	VMOVDQU Y2, (AX)(R11*1)
	ADDQ $32, R11
	CMPQ R11, R10
	JLT  strip
	VZEROUPPER
	RET

// func sweep8QPVBMI(h, e, hb, fb, maxv *int8, qp *int8, stride int, cols *uint8, ncols, rows, lanes, qr, r int, first, last bool)
//
// sweep8QP on the avx2+vbmi tier, over 64-lane zmm strips (the wrapper
// guarantees lanes is a multiple of 64), with the same column loop and
// seam. VBROADCASTI64X4 copies the profile row's 32 bytes (the same bytes
// the two broadcasts of sweep8QP read) into both 256-bit halves of Z13,
// and vpermb indexes its table operand by the low six bits of each index
// byte, so with every index below 32 the lookup is one instruction and the
// column keeps only the residue indices, Z10.
//
// Port budget per row. On the Sapphire and Emerald Rapids parts the
// benchmarks run on, every 512-bit saturating add/subtract and byte max
// issues on port 0 alone, while vpermb, a compare into an opmask and
// vpblendmb can issue on port 5. Three of the row's five maxes — H with E,
// the score tracker and E' — are therefore a vpcmpb into K1-K3 (port 5)
// and a vpblendmb (port 0 or 5). The two on F's loop-carried chain, H with
// F and F', stay vpmaxsb: a compare and blend would add two cycles of
// latency to it. That leaves 6 port-0 ops per row (the add, two maxes,
// three subtracts) against 4 on port 5 and 3 on either, where the unsigned
// biased form queued 10 on port 0.
TEXT ·sweep8QPVBMI(SB), NOSPLIT, $0-106
	MOVQ lanes+80(FP), R10    // row and column stride in bytes
	MOVQ stride+48(FP), R12   // profile row stride in bytes
	MOVQ qr+88(FP), AX
	VMOVQ AX, X3
	VPBROADCASTB X3, Z3
	MOVQ r+96(FP), AX
	VMOVQ AX, X4
	VPBROADCASTB X4, Z4
	MOVQ $0x80, AX
	VMOVQ AX, X5
	VPBROADCASTB X5, Z5       // the floor, MinI8
	XORQ R11, R11             // strip byte offset
strip:
	MOVQ maxv+32(FP), AX
	VMOVDQU8 (AX)(R11*1), Z2
	VMOVDQA64 Z5, Z0          // column 0's diagonal
	MOVQ R11, DX              // the column's strip offset in cols, hb and fb
	MOVQ ncols+64(FP), CX
column:
	MOVQ cols+56(FP), AX
	VMOVDQU8 (AX)(DX*1), Z10  // residue indices, one byte per lane
	VMOVDQA64 Z5, Z1
	VMOVDQA64 Z5, Z9
	CMPB first+104(FP), $0
	JNE  rows
	MOVQ fb+24(FP), AX
	VMOVDQU8 (AX)(DX*1), Z1   // F entering the tile's first row
	MOVQ hb+16(FP), AX
	VMOVDQU8 (AX)(DX*1), Z9   // H above the tile: the next column's diagonal
rows:
	MOVQ h+0(FP), DI
	ADDQ R11, DI
	MOVQ e+8(FP), SI
	ADDQ R11, SI
	MOVQ qp+40(FP), R8
	MOVQ rows+72(FP), R9
	PCALIGN $64
rowloop:
	VBROADCASTI64X4 (R8), Z13 // profile row bytes 0-31 in both halves
	VPERMB    Z13, Z10, Z6    // p5: score[l] = row[idx[l]]
	VPADDSB   Z0, Z6, Z6      // p0: H = diag + score, floored at zero
	VMOVDQU8  (DI), Z0        // up: the next row's diagonal
	VMOVDQU8  (SI), Z8        // E
	VPCMPB    $6, Z6, Z8, K1  // p5: E > H
	VPBLENDMB Z8, Z6, K1, Z6  // H = max(H, E)
	VPMAXSB   Z1, Z6, Z6      // p0: H = max(H, F)
	VPCMPB    $6, Z2, Z6, K2  // p5: H > tracker
	VPBLENDMB Z6, Z2, K2, Z2  // tracker = max(tracker, H)
	VMOVDQU8  Z6, (DI)
	VPSUBSB   Z3, Z6, Z7      // p0: uv = H - qr, floored
	VPSUBSB   Z4, Z8, Z8      // p0: E - r
	VPCMPB    $6, Z8, Z7, K3  // p5: uv > E - r
	VPBLENDMB Z7, Z8, K3, Z8  // E' = max(E - r, uv)
	VMOVDQU8  Z8, (SI)
	VPSUBSB   Z4, Z1, Z1      // p0: F - r
	VPMAXSB   Z7, Z1, Z1      // p0: F' = max(F - r, uv)
	ADDQ      R12, R8         // next query-profile row
	ADDQ      R10, DI
	ADDQ      R10, SI
	DECQ      R9
	JNZ       rowloop
	CMPB last+105(FP), $0
	JNE  next
	MOVQ hb+16(FP), AX
	VMOVDQU8 Z6, (AX)(DX*1)   // the last row's H and F, for the tile below
	MOVQ fb+24(FP), AX
	VMOVDQU8 Z1, (AX)(DX*1)
next:
	VMOVDQA64 Z9, Z0
	ADDQ R10, DX
	DECQ CX
	JNZ  column
	MOVQ maxv+32(FP), AX
	VMOVDQU8 Z2, (AX)(R11*1)
	ADDQ $64, R11
	CMPQ R11, R10
	JLT  strip
	VZEROUPPER
	RET

// func buildRows16(dst, table *int16, idx *uint8, nrows, lanes, stride int)
//
// The score-profile transposition as nrows vpgatherdd word gathers per
// strip: each gather loads a dword at a word index (one element of
// over-read, wrapper-checked), the high halves are masked off and the two
// gathers of a strip packed back to words. Y10/Y11 hold the strip's
// zero-extended residue indices, Y15 the 0x0000FFFF dword mask, Y12 the
// per-gather mask.
TEXT ·buildRows16(SB), NOSPLIT, $0-48
	MOVQ lanes+32(FP), R10
	SHLQ $1, R10              // dst row stride in bytes
	MOVQ stride+40(FP), R12
	SHLQ $1, R12              // table row stride in bytes
	VPCMPEQD Y15, Y15, Y15
	VPSRLD   $16, Y15, Y15
	XORQ R11, R11             // strip byte offset (dst)
	XORQ R13, R13             // strip byte offset (idx)
strip:
	MOVQ idx+16(FP), AX
	ADDQ R13, AX
	VPMOVZXBD (AX), Y10
	VPMOVZXBD 8(AX), Y11
	MOVQ dst+0(FP), DI
	ADDQ R11, DI
	MOVQ table+8(FP), R8
	MOVQ nrows+24(FP), R9
rowloop:
	VPCMPEQD   Y12, Y12, Y12
	VPGATHERDD Y12, (R8)(Y10*2), Y13
	VPCMPEQD   Y12, Y12, Y12
	VPGATHERDD Y12, (R8)(Y11*2), Y14
	VPAND      Y15, Y13, Y13
	VPAND      Y15, Y14, Y14
	VPACKUSDW  Y14, Y13, Y6
	VPERMQ     $0xD8, Y6, Y6
	VMOVDQU    Y6, (DI)
	ADDQ R12, R8
	ADDQ R10, DI
	DECQ R9
	JNZ  rowloop
	ADDQ $32, R11
	ADDQ $16, R13
	CMPQ R11, R10
	JLT  strip
	VZEROUPPER
	RET
