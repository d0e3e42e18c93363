//go:build !amd64 || purego

package vec

// asmSupported is false in binaries without the assembly backend (non-amd64
// hosts, or any host under the purego build tag); every native16/native8
// test then folds to false at compile time and the stubs below are
// unreachable.
const asmSupported = false

func detectTier() Tier { return TierPortable }

func set1x16(dst *int16, n, c int) { panic("vec: no asm") }
func hmax16(a *int16, n int) int16 { panic("vec: no asm") }
func set1x8(dst *int8, n, c int)   { panic("vec: no asm") }
func stepCol16SP(h, e, f, diag, maxv *int16, score *int16, seq *uint8, rows, lanes, qr, r int) {
	panic("vec: no asm")
}
func stepCol8SP(h, e, f, diag, maxv *uint8, score *uint8, seq *uint8, rows, lanes, bias, qr, r int) {
	panic("vec: no asm")
}
func sweep8QP(h, e, hb, fb, maxv *int8, qp *int8, stride int, cols *uint8, ncols, rows, lanes, qr, r int, first, last bool) {
	panic("vec: no asm")
}
func sweep8QPVBMI(h, e, hb, fb, maxv *int8, qp *int8, stride int, cols *uint8, ncols, rows, lanes, qr, r int, first, last bool) {
	panic("vec: no asm")
}
func buildRows16(dst, table *int16, idx *uint8, nrows, lanes, stride int) { panic("vec: no asm") }
