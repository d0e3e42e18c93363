//go:build amd64 && !purego

// AVX2 backend for the fused kernels and their whole-register helpers,
// plus the one routine of the avx2+vbmi tier (sweep8QPVBMI, the signed
// byte query-profile sweep over 512-bit registers). Both byte sweeps run
// the tile's database columns in pairs: one profile load, one H and one E
// round trip and one loop step serve two columns, and each column keeps
// its own F and score tracker. sweep8QPVBMI's header gives the per-cell
// port budget, 13 vector ops of which 6 need Intel's port 0, which the
// pairing leaves as it was, and the latency finding behind the pairing: on
// a wide AMD core the one-column loop waited on its tracker chain, not on
// a port.
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
// The signed byte sweep over 32-lane ymm strips: each strip runs the tile's
// columns two at a time, so the tracker is loaded and stored once per strip
// and each row's profile broadcast, H load and store and E load and store
// serve two columns. H/E/F are cell values offset by -128, so one saturating
// vpaddsb of the plain score both adds and, at its -128 floor, clamps at
// zero. Byte gather as an in-register table permute: the profile row's 32
// bytes are loaded as two 16-byte halves broadcast to both 128-bit lanes
// (Y13, Y14; VBROADCASTI128 reads up to 32 bytes from the row start —
// wrapper-checked spare capacity), then vpshufb looks up idx in the low
// half and idx-16 in the high half (indices with the sign bit set shuffle
// to zero), and vpblendvb takes the low lookup where idx-16 has its sign
// bit set.
//
// The pair loop uses all sixteen registers: Y0 the left column's diagonal,
// Y9 the right column's, Y1/Y12 their F, Y2/Y15 their trackers (merged once
// per strip), Y10/Y11 their idx-16, Y8 E, Y3 qr, Y4 r. The low-half lookup
// takes its idx straight from cols in memory (AX), and Y5-Y7 carry the
// lookups and then uv. The right column's score is added to its diagonal
// first, so the left column's H lands in Y9, the right column's next
// diagonal, with no register move; the left column's E' is the right
// column's E, and E sits at a fixed offset (R13 = e - h) from H, so DI
// walks both. The seam (see step.go): F enters each column from fb, or at
// the floor on the first tile; H above the tile in hb is the diagonal of
// the column to its right, read before the last rows' H and F overwrite
// hb and fb. An odd last column runs the one-column loop (the tail) with
// Y10 idx and Y11 idx-16. Each row loop starts on a 64-byte fetch line
// (PCALIGN), wherever the linker puts the function: the pair loop is 162
// bytes, three lines for two columns, and the tail's 99, two lines.
TEXT ·sweep8QP(SB), NOSPLIT, $0-106
	MOVQ lanes+80(FP), R10    // row and column stride in bytes
	MOVQ stride+48(FP), R12   // profile row stride in bytes
	MOVQ qr+88(FP), AX
	VMOVQ AX, X3
	VPBROADCASTB X3, Y3
	MOVQ r+96(FP), AX
	VMOVQ AX, X4
	VPBROADCASTB X4, Y4
	MOVQ rows+72(FP), SI
	IMULQ R10, SI             // the slab's bytes, rows x lanes
	MOVQ e+8(FP), R13
	SUBQ h+0(FP), R13         // E's offset from H
	XORQ R11, R11             // strip byte offset
strip:
	MOVQ $0x80, AX
	VMOVQ AX, X5
	VPBROADCASTB X5, Y5       // the floor, MinI8
	MOVQ maxv+32(FP), AX
	VMOVDQU (AX)(R11*1), Y2   // the left columns' tracker
	VMOVDQA Y5, Y15           // the right columns'
	VMOVDQA Y5, Y0            // column 0's diagonal
	MOVQ R11, DX              // the left column's strip offset in cols, hb and fb
	MOVQ ncols+64(FP), CX
pair:
	MOVQ $0x80, AX            // the pair loop borrows Y5 and Y12: remake them
	VMOVQ AX, X5
	VPBROADCASTB X5, Y5
	MOVQ $0x1010101010101010, AX
	VMOVQ AX, X12
	VPBROADCASTQ X12, Y12
	CMPQ CX, $2
	JLT  tail
	MOVQ cols+56(FP), AX
	ADDQ DX, AX               // the pair's residue indices, one byte per lane
	VMOVDQU (AX), Y10
	VPSUBB  Y12, Y10, Y10     // left idx - 16 (sign bit set for idx < 16)
	VMOVDQU (AX)(R10*1), Y11
	VPSUBB  Y12, Y11, Y11     // right idx - 16
	VMOVDQA Y5, Y1
	VMOVDQA Y5, Y12
	VMOVDQA Y5, Y9
	CMPB first+104(FP), $0
	JNE  pairrows
	MOVQ fb+24(FP), BX
	ADDQ DX, BX
	VMOVDQU (BX), Y1          // F entering the tile's first row, left
	VMOVDQU (BX)(R10*1), Y12  // and right
	MOVQ hb+16(FP), BX
	VMOVDQU (BX)(DX*1), Y9    // H above the left column: the right's diagonal
pairrows:
	MOVQ h+0(FP), DI
	ADDQ R11, DI
	LEAQ (DI)(SI*1), R9       // the strip's end in the slab
	MOVQ qp+40(FP), R8
	PCALIGN $64
pairloop:
	VBROADCASTI128 (R8), Y13  // profile row bytes 0-15 in both lanes
	VBROADCASTI128 16(R8), Y14 // bytes 16-31 (over-read past row end)
	VPSHUFB   (AX), Y13, Y6   // left: low-half lookup
	VPSHUFB   Y10, Y14, Y7    // high-half lookup
	VPBLENDVB Y10, Y6, Y7, Y6
	VPSHUFB   (AX)(R10*1), Y13, Y7 // right
	VPSHUFB   Y11, Y14, Y5
	VPBLENDVB Y11, Y7, Y5, Y7
	VPADDSB  Y9, Y7, Y7       // right H = diag + score, floored at zero
	VPADDSB  Y0, Y6, Y9       // left H, the right's next diagonal
	VMOVDQU  (DI), Y0         // up: the left's next diagonal
	VMOVDQU  (DI)(R13*1), Y8  // E
	VPMAXSB  Y8, Y9, Y9
	VPMAXSB  Y1, Y9, Y9
	VPMAXSB  Y9, Y2, Y2       // left tracker
	VPSUBSB  Y3, Y9, Y6       // left uv = H - qr, floored
	VPSUBSB  Y4, Y8, Y8
	VPMAXSB  Y6, Y8, Y8       // left E', the right's E
	VPSUBSB  Y4, Y1, Y1
	VPMAXSB  Y6, Y1, Y1
	VPMAXSB  Y8, Y7, Y7
	VPMAXSB  Y12, Y7, Y7
	VPMAXSB  Y7, Y15, Y15     // right tracker
	VMOVDQU  Y7, (DI)
	VPSUBSB  Y3, Y7, Y5       // right uv
	VPSUBSB  Y4, Y8, Y8
	VPMAXSB  Y5, Y8, Y8
	VMOVDQU  Y8, (DI)(R13*1)
	VPSUBSB  Y4, Y12, Y12
	VPMAXSB  Y5, Y12, Y12
	ADDQ     R12, R8          // next query-profile row
	ADDQ     R10, DI
	CMPQ     DI, R9
	JNE      pairloop
	CMPB first+104(FP), $0
	JNE  pairfloor
	MOVQ hb+16(FP), BX
	ADDQ DX, BX
	VMOVDQU (BX)(R10*1), Y0   // H above the right column: the next diagonal
	JMP  pairseam
pairfloor:
	MOVQ $0x80, BX
	VMOVQ BX, X0
	VPBROADCASTB X0, Y0
pairseam:
	CMPB last+105(FP), $0
	JNE  pairnext
	MOVQ hb+16(FP), BX
	ADDQ DX, BX
	VMOVDQU Y9, (BX)          // the last row's H and F, for the tile below
	VMOVDQU Y7, (BX)(R10*1)
	MOVQ fb+24(FP), BX
	ADDQ DX, BX
	VMOVDQU Y1, (BX)
	VMOVDQU Y12, (BX)(R10*1)
pairnext:
	LEAQ (DX)(R10*2), DX
	SUBQ $2, CX
	JMP  pair
tail:
	TESTQ CX, CX
	JZ    merge
	MOVQ cols+56(FP), AX
	VMOVDQU (AX)(DX*1), Y10   // the last column's residue indices
	VPSUBB Y12, Y10, Y11      // idx - 16
	VMOVDQA Y5, Y1
	CMPB first+104(FP), $0
	JNE  tailrows
	MOVQ fb+24(FP), AX
	VMOVDQU (AX)(DX*1), Y1
tailrows:
	MOVQ h+0(FP), DI
	ADDQ R11, DI
	LEAQ (DI)(SI*1), R9
	MOVQ qp+40(FP), R8
	PCALIGN $64
tailloop:
	VBROADCASTI128 (R8), Y13
	VBROADCASTI128 16(R8), Y14
	VPSHUFB   Y10, Y13, Y13
	VPSHUFB   Y11, Y14, Y14
	VPBLENDVB Y11, Y13, Y14, Y6
	VPADDSB  Y0, Y6, Y6
	VMOVDQU  (DI), Y0
	VMOVDQU  (DI)(R13*1), Y8
	VPMAXSB  Y8, Y6, Y6
	VPMAXSB  Y1, Y6, Y6
	VPMAXSB  Y6, Y2, Y2
	VMOVDQU  Y6, (DI)
	VPSUBSB  Y3, Y6, Y7
	VPSUBSB  Y4, Y8, Y8
	VPMAXSB  Y7, Y8, Y8
	VMOVDQU  Y8, (DI)(R13*1)
	VPSUBSB  Y4, Y1, Y1
	VPMAXSB  Y7, Y1, Y1
	ADDQ     R12, R8
	ADDQ     R10, DI
	CMPQ     DI, R9
	JNE      tailloop
	CMPB last+105(FP), $0
	JNE  merge
	MOVQ hb+16(FP), AX
	VMOVDQU Y6, (AX)(DX*1)
	MOVQ fb+24(FP), AX
	VMOVDQU Y1, (AX)(DX*1)
merge:
	VPMAXSB Y15, Y2, Y2       // the two trackers, once per strip
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
// guarantees lanes is a multiple of 64), with the same column pairs, tail
// and seam. VBROADCASTI64X4 copies the profile row's 32 bytes (the same
// bytes the two broadcasts of sweep8QP read) into both 256-bit halves of
// Z13, and vpermb indexes its table operand by the low six bits of each
// index byte, so with every index below 32 each column's lookup is one
// instruction on its residue indices (Z10 left, Z11 right). Z0/Z9 are the
// pair's diagonals, Z1/Z17 their F, Z2/Z18 their trackers, Z8 E, Z7 the
// right column's H; Z6 and Z19 take the scores and then uv.
//
// Port budget per cell, unchanged by the pairing. On the Sapphire and
// Emerald Rapids parts the benchmarks run on, every 512-bit saturating
// add/subtract and byte max issues on port 0 alone, while vpermb, a compare
// into an opmask and vpblendmb can issue on port 5. Three of a cell's five
// maxes — H with E, the score tracker and E' — are therefore a vpcmpb into
// an opmask (port 5) and a vpblendmb (port 0 or 5). The two on F's
// loop-carried chain, H with F and F', stay vpmaxsb: a compare and blend
// would add two cycles of latency to it. That leaves 6 port-0 ops per cell
// (the add, two maxes, three subtracts) against 4 on port 5 and 3 on
// either, 13 in all, where the unsigned biased form queued 10 on port 0.
//
// Latency, not ports, bounds the one-column loop on the AMD EPYC (Zen 5,
// family 26 model 2) the pairing was measured on: each row's tracker
// update, a vpcmpb then a vpblendmb, waits on the row before, and the loop
// held 38-39 Gcells/s per thread from 8 to 1,000 rows. The pair loop gives
// each column its own tracker, so two such chains interleave, and it
// halves the loads, stores and loop control per cell: 50-53 Gcells/s
// there. The pair loop is 209 bytes, four fetch lines; the tail's is 124.
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
	MOVQ rows+72(FP), SI
	IMULQ R10, SI             // the slab's bytes, rows x lanes
	MOVQ e+8(FP), R13
	SUBQ h+0(FP), R13         // E's offset from H
	XORQ R11, R11             // strip byte offset
strip:
	MOVQ maxv+32(FP), AX
	VMOVDQU8 (AX)(R11*1), Z2  // the left columns' tracker
	VMOVDQA64 Z5, Z18         // the right columns'
	VMOVDQA64 Z5, Z0          // column 0's diagonal
	MOVQ R11, DX              // the left column's strip offset in cols, hb and fb
	MOVQ ncols+64(FP), CX
pair:
	CMPQ CX, $2
	JLT  tail
	MOVQ cols+56(FP), AX
	ADDQ DX, AX
	VMOVDQU8 (AX), Z10        // the pair's residue indices, one byte per lane
	VMOVDQU8 (AX)(R10*1), Z11
	VMOVDQA64 Z5, Z1
	VMOVDQA64 Z5, Z17
	VMOVDQA64 Z5, Z9
	CMPB first+104(FP), $0
	JNE  pairrows
	MOVQ fb+24(FP), AX
	ADDQ DX, AX
	VMOVDQU8 (AX), Z1         // F entering the tile's first row, left
	VMOVDQU8 (AX)(R10*1), Z17 // and right
	MOVQ hb+16(FP), AX
	VMOVDQU8 (AX)(DX*1), Z9   // H above the left column: the right's diagonal
pairrows:
	MOVQ h+0(FP), DI
	ADDQ R11, DI
	LEAQ (DI)(SI*1), R9       // the strip's end in the slab
	MOVQ qp+40(FP), R8
	PCALIGN $64
pairloop:
	VBROADCASTI64X4 (R8), Z13 // profile row bytes 0-31 in both halves
	VPERMB    Z13, Z10, Z6    // p5: left score
	VPERMB    Z13, Z11, Z7    // p5: right score
	VPADDSB   Z9, Z7, Z7      // p0: right H = diag + score, floored at zero
	VPADDSB   Z0, Z6, Z9      // p0: left H, the right's next diagonal
	VMOVDQU8  (DI), Z0        // up: the left's next diagonal
	VMOVDQU8  (DI)(R13*1), Z8 // E
	VPCMPB    $6, Z9, Z8, K1  // p5: E > H
	VPBLENDMB Z8, Z9, K1, Z9  // H = max(H, E)
	VPMAXSB   Z1, Z9, Z9      // p0: H = max(H, F)
	VPCMPB    $6, Z2, Z9, K2  // p5: H > tracker
	VPBLENDMB Z9, Z2, K2, Z2  // left tracker
	VPSUBSB   Z3, Z9, Z6      // p0: uv = H - qr, floored
	VPSUBSB   Z4, Z8, Z8      // p0: E - r
	VPCMPB    $6, Z8, Z6, K3  // p5: uv > E - r
	VPBLENDMB Z6, Z8, K3, Z8  // left E', the right's E
	VPSUBSB   Z4, Z1, Z1      // p0: F - r
	VPMAXSB   Z6, Z1, Z1      // p0: F' = max(F - r, uv)
	VPCMPB    $6, Z7, Z8, K4  // the right column, as the left
	VPBLENDMB Z8, Z7, K4, Z7
	VPMAXSB   Z17, Z7, Z7
	VPCMPB    $6, Z18, Z7, K5
	VPBLENDMB Z7, Z18, K5, Z18 // right tracker
	VMOVDQU8  Z7, (DI)
	VPSUBSB   Z3, Z7, Z19
	VPSUBSB   Z4, Z8, Z8
	VPCMPB    $6, Z8, Z19, K6
	VPBLENDMB Z19, Z8, K6, Z8
	VMOVDQU8  Z8, (DI)(R13*1)
	VPSUBSB   Z4, Z17, Z17
	VPMAXSB   Z19, Z17, Z17
	ADDQ      R12, R8         // next query-profile row
	ADDQ      R10, DI
	CMPQ      DI, R9
	JNE       pairloop
	VMOVDQA64 Z5, Z0
	CMPB first+104(FP), $0
	JNE  pairseam
	MOVQ hb+16(FP), AX
	ADDQ DX, AX
	VMOVDQU8 (AX)(R10*1), Z0  // H above the right column: the next diagonal
pairseam:
	CMPB last+105(FP), $0
	JNE  pairnext
	MOVQ hb+16(FP), AX
	ADDQ DX, AX
	VMOVDQU8 Z9, (AX)         // the last row's H and F, for the tile below
	VMOVDQU8 Z7, (AX)(R10*1)
	MOVQ fb+24(FP), AX
	ADDQ DX, AX
	VMOVDQU8 Z1, (AX)
	VMOVDQU8 Z17, (AX)(R10*1)
pairnext:
	LEAQ (DX)(R10*2), DX
	SUBQ $2, CX
	JMP  pair
tail:
	TESTQ CX, CX
	JZ    merge
	MOVQ cols+56(FP), AX
	VMOVDQU8 (AX)(DX*1), Z10  // the last column's residue indices
	VMOVDQA64 Z5, Z1
	CMPB first+104(FP), $0
	JNE  tailrows
	MOVQ fb+24(FP), AX
	VMOVDQU8 (AX)(DX*1), Z1
tailrows:
	MOVQ h+0(FP), DI
	ADDQ R11, DI
	LEAQ (DI)(SI*1), R9
	MOVQ qp+40(FP), R8
	PCALIGN $64
tailloop:
	VBROADCASTI64X4 (R8), Z13
	VPERMB    Z13, Z10, Z6
	VPADDSB   Z0, Z6, Z6
	VMOVDQU8  (DI), Z0
	VMOVDQU8  (DI)(R13*1), Z8
	VPCMPB    $6, Z6, Z8, K1
	VPBLENDMB Z8, Z6, K1, Z6
	VPMAXSB   Z1, Z6, Z6
	VPCMPB    $6, Z2, Z6, K2
	VPBLENDMB Z6, Z2, K2, Z2
	VMOVDQU8  Z6, (DI)
	VPSUBSB   Z3, Z6, Z7
	VPSUBSB   Z4, Z8, Z8
	VPCMPB    $6, Z8, Z7, K3
	VPBLENDMB Z7, Z8, K3, Z8
	VMOVDQU8  Z8, (DI)(R13*1)
	VPSUBSB   Z4, Z1, Z1
	VPMAXSB   Z7, Z1, Z1
	ADDQ      R12, R8
	ADDQ      R10, DI
	CMPQ      DI, R9
	JNE       tailloop
	CMPB last+105(FP), $0
	JNE  merge
	MOVQ hb+16(FP), AX
	VMOVDQU8 Z6, (AX)(DX*1)
	MOVQ fb+24(FP), AX
	VMOVDQU8 Z1, (AX)(DX*1)
merge:
	VPMAXSB Z18, Z2, Z2       // the two trackers, once per strip
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
