package vec

import (
	"fmt"
	"math/rand"
	"syscall"
	"testing"
	"unsafe"
)

// TestStepCol8QPGuardPage places query profiles against an unmapped page:
// with exactly the capacity the wrapper demands, the last row's 32-byte
// load ends on the last mapped byte, so a native body reading any further
// faults here instead of passing on allocator slack; one byte short of that
// capacity the wrapper must take the portable loop, or it faults too. The
// lane counts run the zmm body (64, 128) and, at 96, the vpshufb body the
// avx2+vbmi tier hands widths that are not whole zmm registers.
func TestStepCol8QPGuardPage(t *testing.T) {
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	defer syscall.Munmap(mem)
	if err := syscall.Mprotect(mem[page:], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	rng := rand.New(rand.NewSource(68))
	for i := range mem[:page] {
		mem[i] = uint8(rng.Intn(256))
	}
	// The profile is int8; view the mapping as such, guard page included.
	mem8 := unsafe.Slice((*int8)(unsafe.Pointer(&mem[0])), len(mem))
	for _, tr := range Tiers() {
		t.Run(tr.String(), func(t *testing.T) {
			defer CapTier(CapTier(tr))
			for _, lanes := range []int{64, 96, 128} {
				for _, stride := range []int{16, 25, 32} {
					for _, rows := range []int{1, 7} {
						for short := 0; short <= 1 && rows*stride <= (rows-1)*stride+32-short; short++ {
							base := page - ((rows-1)*stride + 32 - short)
							qp := mem8[base : base+rows*stride : page]
							col := make([]uint8, lanes)
							for i := range col {
								col[i] = uint8(rng.Intn(stride))
							}
							st := randI8(rng, rows, lanes)
							got, want := st.clone(), st.clone()
							StepCol8QP(got.h, got.e, got.f, got.diag, got.maxv, qp, stride, col, rows, lanes, 12, 2)
							stepCol8QPGeneric(want.h, want.e, want.f, want.diag, want.maxv, qp, stride, col, rows, lanes, 12, 2)
							got.diff(t, fmt.Sprintf("StepCol8QP at the guard page, %d lanes", lanes), want)
						}
					}
				}
			}
		})
	}
}
