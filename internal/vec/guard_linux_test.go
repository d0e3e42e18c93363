package vec

import (
	"fmt"
	"math/rand"
	"syscall"
	"testing"
	"unsafe"
)

// guardedPage maps a readable page followed by an unmapped one and returns
// the readable page, filled with random bytes: a slice ending at its end
// ends flush against memory any read past it faults on.
func guardedPage(t *testing.T, rng *rand.Rand) []byte {
	t.Helper()
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[page:], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	for i := range mem[:page] {
		mem[i] = uint8(rng.Intn(256))
	}
	return mem[:page]
}

// TestSweep8QPGuardPage places query profiles, column arrays and seam rows
// against unmapped pages. With exactly the capacity the wrapper demands,
// the profile's last row's 32-byte load ends on the last mapped byte, so a
// native body reading any further faults here instead of passing on
// allocator slack; one byte short of that capacity the wrapper must take
// the portable loop, or it faults too. The interleaved columns, ncols x
// lanes bytes, end flush against a second guard page, and the seam rows hb
// and fb against a third and a fourth, which pins that no body reads or
// writes past column ncols-1: at two columns the last is the right of a
// pair, at three an odd last column, at four the right of the second pair,
// each under every seam case. The lane counts run the zmm body (64, 128)
// and, at 96, the vpshufb body the avx2+vbmi tier hands widths that are
// not whole zmm registers.
func TestSweep8QPGuardPage(t *testing.T) {
	rng := rand.New(rand.NewSource(68))
	// The profile and the seam rows are int8; view their mappings as such.
	asI8 := func(b []byte) []int8 { return unsafe.Slice((*int8)(unsafe.Pointer(&b[0])), len(b)) }
	qpMem := asI8(guardedPage(t, rng))
	colPage := guardedPage(t, rng)
	hbMem, fbMem := asI8(guardedPage(t, rng)), asI8(guardedPage(t, rng))
	page := len(qpMem)
	for _, tr := range Tiers() {
		t.Run(tr.String(), func(t *testing.T) {
			defer CapTier(CapTier(tr))
			for _, lanes := range []int{64, 96, 128} {
				for _, stride := range []int{16, 25, 32} {
					for _, rows := range []int{1, 7} {
						for short := 0; short <= 1 && rows*stride <= (rows-1)*stride+32-short; short++ {
							base := page - ((rows-1)*stride + 32 - short)
							qp := qpMem[base : base+rows*stride : page]
							for _, ncols := range []int{2, 3, 4} {
								cols := colPage[page-ncols*lanes:]
								for i := range cols {
									cols[i] = uint8(rng.Intn(stride))
								}
								for _, sc := range seamCases {
									st := randSweep(rng, rows, lanes, ncols)
									got, want := st.clone(), st.clone()
									got.hb, got.fb = hbMem[page-ncols*lanes:], fbMem[page-ncols*lanes:]
									copy(got.hb, st.hb)
									copy(got.fb, st.fb)
									got.sweep(qp, stride, cols, ncols, rows, lanes, 12, 2, sc.first, sc.last)
									want.sweepRef(qp, stride, cols, ncols, rows, lanes, 12, 2, sc.first, sc.last)
									got.diff(t, fmt.Sprintf("Sweep8QP at the guard pages, %d lanes, %d columns, %s", lanes, ncols, sc.name), want)
								}
							}
						}
					}
				}
			}
		})
	}
}
