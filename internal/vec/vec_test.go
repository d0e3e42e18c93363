package vec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// The saturating lane arithmetic of the alignment kernels — add, subtract
// a broadcast constant, lane-wise maximum, indexed score lookup, rail
// detection — lives inside the fused column steps. The tests below pin each
// operation at hand-computed values, rails included, through the exported
// steps under every tier the host runs; the differential tests in
// backend_test.go then hold native and portable lane-exact on random state.

// row16 is the uniform input of one 16-lane StepCol16SP row: every lane
// starts with the same diagonal, score, E, F and tracker.
type row16 struct {
	diag, score, e, f, maxv int16
	qr, r                   int16
}

// out16 is what one row16 leaves behind, per lane.
type out16 struct{ h, e, f, maxv int16 }

// run steps the row under every tier, failing if a tier or a lane
// disagrees, and returns the common result.
func (in row16) run(t *testing.T) out16 {
	t.Helper()
	const lanes = 16
	var first out16
	for i, tr := range Tiers() {
		func() {
			defer CapTier(CapTier(tr))
			h, e, f := make(I16, lanes), make(I16, lanes), make(I16, lanes)
			diag, maxv, score := make(I16, lanes), make(I16, lanes), make([]int16, lanes)
			Set1(e, in.e)
			Set1(f, in.f)
			Set1(diag, in.diag)
			Set1(maxv, in.maxv)
			Set1(I16(score), in.score)
			StepCol16SP(h, e, f, diag, maxv, score, []uint8{0}, 1, lanes, in.qr, in.r)
			got := out16{h[0], e[0], f[0], maxv[0]}
			for l := 1; l < lanes; l++ {
				if (out16{h[l], e[l], f[l], maxv[l]}) != got {
					t.Fatalf("%v: lane %d differs from lane 0 on uniform input %+v", tr, l, in)
				}
			}
			if i == 0 {
				first = got
			} else if got != first {
				t.Fatalf("%+v: %v computes %+v, %v %+v", in, tr, got, Tiers()[0], first)
			}
		}()
	}
	return first
}

func TestAddSatSaturates(t *testing.T) {
	// diag + score clips at the rail instead of wrapping negative (and then
	// clamping to zero), so the lane is seen to saturate.
	got := row16{diag: 30000, score: 10000, e: MinI16, f: MinI16, qr: 12, r: 2}.run(t)
	if got.h != MaxI16 || got.maxv != MaxI16 {
		t.Errorf("30000+10000: H %d, tracker %d, want both %d", got.h, got.maxv, MaxI16)
	}
	if got := (row16{diag: 100, score: 28, e: MinI16, f: MinI16, qr: 12, r: 2}).run(t); got.h != 128 {
		t.Errorf("100+28: H = %d", got.h)
	}
}

func TestSubSatConst(t *testing.T) {
	// E and F decay by r per row; at the -inf rail the subtract saturates.
	// A wrapping MinI16-5 would be 32763 and win the maximum with H-q.
	got := row16{diag: 0, score: -5, e: MinI16, f: MinI16, qr: 16384, r: 5}.run(t)
	if got.h != 0 || got.e != -16384 || got.f != -16384 {
		t.Errorf("at the rail: H %d E %d F %d, want 0 -16384 -16384", got.h, got.e, got.f)
	}
	got = row16{diag: 0, score: -5, e: 1000, f: 700, qr: 12, r: 2}.run(t)
	if got.h != 1000 || got.e != 998 || got.f != 988 {
		t.Errorf("decay: H %d E %d F %d, want 1000 998 988 (F takes H-q)", got.h, got.e, got.f)
	}
}

func TestMaxVariants(t *testing.T) {
	// H is the four-way maximum of diag+score, E, F and zero.
	for _, c := range []struct {
		in   row16
		want int16
	}{
		{row16{diag: 40, score: 5, e: 30, f: 20}, 45},
		{row16{diag: 40, score: 5, e: 50, f: 20}, 50},
		{row16{diag: 40, score: 5, e: 30, f: 60}, 60},
		{row16{diag: 3, score: -9, e: -4, f: MinI16}, 0},
	} {
		c.in.qr, c.in.r = 12, 2
		if got := c.in.run(t); got.h != c.want {
			t.Errorf("%+v: H = %d, want %d", c.in, got.h, c.want)
		}
	}
}

func TestSet1AndHorizontalMax(t *testing.T) {
	dst := make(I16, 32)
	Set1(dst, -7)
	for l, v := range dst {
		if v != -7 {
			t.Fatalf("lane %d = %d", l, v)
		}
	}
	dst[17] = 300
	if got := HorizontalMax(dst); got != 300 {
		t.Fatalf("HorizontalMax = %d", got)
	}
}

func TestGather(t *testing.T) {
	// The byte sweep scores lane l with its column residue's entry of the
	// profile row, row[col[l]], across both 16-byte halves of the row: in a
	// tile's first column, from the floor's diagonal (cell 0) with E and F
	// at the floor, H is the cell value of a non-negative score itself.
	const lanes, stride = 32, 25
	for _, tr := range Tiers() {
		func() {
			defer CapTier(CapTier(tr))
			qp := make([]int8, stride, 32)
			for i := range qp {
				qp[i] = int8(3*i + 1)
			}
			col := make([]uint8, lanes)
			for l := range col {
				col[l] = uint8((7 * l) % stride)
			}
			h, e, maxv := make(I8, lanes), make(I8, lanes), make(I8, lanes)
			Set1I8(h, MinI8)
			Set1I8(e, MinI8)
			Set1I8(maxv, MinI8)
			Sweep8QP(h, e, nil, nil, maxv, qp, stride, col, 1, 1, lanes, MaxI8, MaxI8, true, true)
			for l := range h {
				if want := qp[col[l]] + MinI8; h[l] != want {
					t.Fatalf("%v: lane %d (residue %d) scored %d, want %d", tr, l, col[l], h[l], want)
				}
			}
		}()
	}
}

func TestAnyGE(t *testing.T) {
	// One saturated lane shows in the tracker's horizontal maximum, the
	// striped path's escalation test; unsaturated lanes never reach it.
	const lanes = 16
	h, e, f := make(I16, lanes), make(I16, lanes), make(I16, lanes)
	diag, maxv, score := make(I16, lanes), make(I16, lanes), make([]int16, lanes)
	Set1(e, MinI16)
	Set1(f, MinI16)
	Set1(I16(score), 11)
	StepCol16SP(h, e, f, diag, maxv, score, []uint8{0}, 1, lanes, 12, 2)
	if got := HorizontalMax(maxv); got != 11 {
		t.Fatalf("unsaturated tracker max = %d", got)
	}
	diag[9] = MaxI16 - 3
	StepCol16SP(h, e, f, diag, maxv, score, []uint8{0}, 1, lanes, 12, 2)
	if got := HorizontalMax(maxv); got != MaxI16 {
		t.Fatalf("tracker max with lane 9 saturated = %d, want %d", got, MaxI16)
	}
}

// Property: H equals the clamped wide four-way maximum on random lanes.
func TestAddSatProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := func(uint8) bool {
		in := row16{
			diag:  int16(rng.Intn(MaxI16 + 1)),
			score: int16(rng.Intn(1100) - 1024),
			e:     int16(rng.Intn(1 << 16)),
			f:     int16(rng.Intn(1 << 16)),
			qr:    int16(rng.Intn(100)),
			r:     int16(rng.Intn(30)),
		}
		want := min(int32(in.diag)+int32(in.score), MaxI16)
		want = max(want, int32(in.e), int32(in.f), 0)
		return int32(in.run(t).h) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the tracker leaves every row as max(tracker, H), never lower
// than it entered.
func TestMaxProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	f := func(uint8) bool {
		in := row16{
			diag:  int16(rng.Intn(MaxI16 + 1)),
			score: int16(rng.Intn(40) - 20),
			e:     int16(rng.Intn(1 << 16)),
			f:     int16(rng.Intn(1 << 16)),
			maxv:  int16(rng.Intn(MaxI16 + 1)),
			qr:    12,
			r:     2,
		}
		got := in.run(t)
		return got.maxv == max(in.maxv, got.h)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// ---- 8-bit signed lanes ----

// row8 steps one row of the byte rung's generic column step with uniform
// lanes (every column residue 0, whose score is score) and returns lane
// 0's H, E, F and tracker. Every value is in the signed rung's offset
// form: a lane holding v is the cell value v+128. The cell semantics are
// pinned here, on the step whose inputs a test can set; TestSweep8QPTiers
// and FuzzSweep8QP hold every tier's sweep to that step lane for lane.
func row8(t *testing.T, diag, score, e, f, maxv, qr, r int8) [4]int8 {
	t.Helper()
	const stride, lanes = 25, 32
	qp := make([]int8, stride)
	qp[0] = score
	h, ev, fv := make(I8, lanes), make(I8, lanes), make(I8, lanes)
	dv, mv := make(I8, lanes), make(I8, lanes)
	Set1I8(ev, e)
	Set1I8(fv, f)
	Set1I8(dv, diag)
	Set1I8(mv, maxv)
	stepCol8QPGeneric(h, ev, fv, dv, mv, qp, stride, make([]uint8, lanes), 1, lanes, qr, r)
	got := [4]int8{h[0], ev[0], fv[0], mv[0]}
	for l := 1; l < lanes; l++ {
		if ([4]int8{h[l], ev[l], fv[l], mv[l]}) != got {
			t.Fatalf("lane %d differs from lane 0", l)
		}
	}
	return got
}

func TestU8Saturation(t *testing.T) {
	// The add clips at MaxI8: the cell 250 plus a score of 20 reads 255, the
	// rail, and the lane escalates. E and F then decay from it by qr.
	if got := row8(t, 122, 20, MinI8, MinI8, MinI8, 12, 2); got != [4]int8{127, 115, 115, 127} {
		t.Errorf("cell 250 + 20: H E F tracker = %v, want [127 115 115 127] (cells 255 243 243 255)", got)
	}
	// The MinI8 floor is the clamp at zero, for the add and for the gap
	// decays: cell 0 + -3 is 0, E (cell 1) and F (cell 3) win H, and E - r
	// and H - qr floor at cell 0.
	if got := row8(t, MinI8, -3, -127, -125, MinI8, 12, 2); got != [4]int8{-125, MinI8, -127, -125} {
		t.Errorf("floors: H E F tracker = %v, want [-125 -128 -127 -125] (cells 3 0 1 3)", got)
	}
}

func TestU8MaxOps(t *testing.T) {
	// H is the maximum of diag+score, E and F (the floor being zero), and
	// the tracker keeps the larger of itself and H. Cells: diag 40 + 5
	// against E 30 and F 20, then E 50, F 60 and a tracker at 200.
	for _, c := range []struct {
		diag, score, e, f, maxv int8
		wantH, wantMax          int8
	}{
		{-88, 5, -98, -108, MinI8, -83, -83},
		{-88, 5, -78, -108, MinI8, -78, -78},
		{-88, 5, -98, -68, MinI8, -68, -68},
		{-88, 5, -98, -108, 72, -83, 72},
	} {
		got := row8(t, c.diag, c.score, c.e, c.f, c.maxv, 12, 2)
		if got[0] != c.wantH || got[3] != c.wantMax {
			t.Errorf("%+v: H %d tracker %d", c, got[0], got[3])
		}
	}
}

func TestU8BroadcastGatherTests(t *testing.T) {
	for _, n := range []int{5, 32, 64} {
		for _, c := range []int8{42, MinI8} {
			dst := make(I8, n)
			Set1I8(dst, c)
			for _, v := range dst {
				if v != c {
					t.Fatalf("Set1I8(n=%d, %d) = %v", n, c, dst)
				}
			}
		}
	}
}
