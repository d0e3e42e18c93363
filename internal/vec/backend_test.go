package vec

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// The differential suite: every native routine must be lane-exact against
// its portable generic on adversarial inputs (saturation rails, negatives,
// zero, full-range randoms) at every register-multiple width. Skipped
// where no assembly tier is selected.

func requireNative(t *testing.T) {
	t.Helper()
	if !Native() {
		t.Skip("native backend unavailable on this host")
	}
}

// railsI16 mixes full-range randoms with rail and near-rail values.
func railsI16(rng *rand.Rand, n int) I16 {
	out := make(I16, n)
	for i := range out {
		switch rng.Intn(6) {
		case 0:
			out[i] = MaxI16
		case 1:
			out[i] = MinI16
		case 2:
			out[i] = int16(rng.Intn(7) - 3)
		default:
			out[i] = int16(rng.Intn(1 << 16))
		}
	}
	return out
}

func railsU8(rng *rand.Rand, n int) U8 {
	out := make(U8, n)
	for i := range out {
		switch rng.Intn(6) {
		case 0:
			out[i] = MaxU8
		case 1:
			out[i] = 0
		case 2:
			out[i] = uint8(253 + rng.Intn(3))
		default:
			out[i] = uint8(rng.Intn(256))
		}
	}
	return out
}

// railsI8 is railsU8 in the signed byte rung's offset representation: the
// unsigned rails 0 and 255 land on MinI8 and MaxI8.
func railsI8(rng *rand.Rand, n int) I8 {
	out := make(I8, n)
	for i, v := range railsU8(rng, n) {
		out[i] = int8(v ^ 0x80)
	}
	return out
}

var testWidths16 = []int{16, 32, 48, 64, 128}
var testWidths8 = []int{32, 64, 96, 128}

func TestNativeI16Primitives(t *testing.T) {
	requireNative(t)
	rng := rand.New(rand.NewSource(61))
	for _, n := range testWidths16 {
		for trial := 0; trial < 50; trial++ {
			a := railsI16(rng, n)
			c := int16(rng.Intn(1 << 16))

			got, want := make(I16, n), make(I16, n)
			set1x16(&got[0], n, int(c))
			set1Generic(want, c)
			eqI16(t, "set1x16", got, want)

			if g, w := hmax16(&a[0], n), horizontalMaxGeneric(a); g != w {
				t.Fatalf("hmax16(n=%d) = %d, generic %d", n, g, w)
			}
		}
	}
}

func TestNativeU8Primitives(t *testing.T) {
	requireNative(t)
	rng := rand.New(rand.NewSource(62))
	for _, n := range testWidths8 {
		for trial := 0; trial < 50; trial++ {
			c := int8(rng.Intn(256) + MinI8)
			got, want := make(I8, n), make(I8, n)
			set1x8(&got[0], n, int(c))
			set1I8Generic(want, c)
			eq8(t, "set1x8", got, want)
		}
	}
}

func eqI16(t *testing.T, op string, got, want I16) {
	t.Helper()
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s(n=%d) lane %d: native %d, generic %d", op, len(got), i, got[i], want[i])
		}
	}
}

func eq8[T int8 | uint8](t *testing.T, op string, got, want []T) {
	t.Helper()
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s(n=%d) lane %d: native %d, generic %d", op, len(got), i, got[i], want[i])
		}
	}
}

// stepState bundles one randomized column-step input set; clone() deep-copies
// so native and generic runs see identical state.
type stepState16 struct {
	h, e, f, diag, maxv I16
}

func randStep16(rng *rand.Rand, rows, lanes int) *stepState16 {
	s := &stepState16{
		h:    make(I16, rows*lanes),
		e:    make(I16, rows*lanes),
		f:    make(I16, lanes),
		diag: make(I16, lanes),
		maxv: make(I16, lanes),
	}
	for i := range s.h {
		// H is a cell value in [0, MaxI16]; E may carry the -inf rail.
		s.h[i] = int16(rng.Intn(MaxI16 + 1))
		if rng.Intn(8) == 0 {
			s.h[i] = MaxI16
		}
		s.e[i] = int16(rng.Intn(1 << 16))
		if rng.Intn(8) == 0 {
			s.e[i] = MinI16
		}
	}
	for l := 0; l < lanes; l++ {
		s.diag[l] = int16(rng.Intn(MaxI16 + 1))
		s.f[l] = int16(rng.Intn(1 << 16))
		if rng.Intn(8) == 0 {
			s.f[l] = MinI16
		}
		s.maxv[l] = int16(rng.Intn(MaxI16 + 1))
	}
	return s
}

func (s *stepState16) clone() *stepState16 {
	c := &stepState16{
		h:    append(I16(nil), s.h...),
		e:    append(I16(nil), s.e...),
		f:    append(I16(nil), s.f...),
		diag: append(I16(nil), s.diag...),
		maxv: append(I16(nil), s.maxv...),
	}
	return c
}

func (s *stepState16) diff(t *testing.T, op string, o *stepState16) {
	t.Helper()
	eqI16(t, op+" h", s.h, o.h)
	eqI16(t, op+" e", s.e, o.e)
	eqI16(t, op+" f", s.f, o.f)
	eqI16(t, op+" diag", s.diag, o.diag)
	eqI16(t, op+" maxv", s.maxv, o.maxv)
}

const testStride = 25 // profile.TableWidth, without the import cycle

func TestNativeStepCol16(t *testing.T) {
	requireNative(t)
	rng := rand.New(rand.NewSource(63))
	for _, lanes := range []int{16, 32, 64} {
		for _, rows := range []int{1, 2, 7, 33} {
			for trial := 0; trial < 20; trial++ {
				st := randStep16(rng, rows, lanes)
				qr := int16(rng.Intn(100))
				r := int16(rng.Intn(30))

				score := railsI16(rng, testStride*lanes)
				seq := make([]uint8, rows)
				for i := range seq {
					seq[i] = uint8(rng.Intn(testStride))
				}
				native, generic := st.clone(), st.clone()
				stepCol16SP(&native.h[0], &native.e[0], &native.f[0], &native.diag[0], &native.maxv[0],
					&score[0], &seq[0], rows, lanes, int(qr), int(r))
				stepCol16SPGeneric(generic.h, generic.e, generic.f, generic.diag, generic.maxv,
					score, seq, rows, lanes, qr, r)
				native.diff(t, "stepCol16SP", generic)

			}
		}
	}
}

// stepState8 is the score-profile byte step's state.
type stepState8 struct {
	h, e, f, diag, maxv U8
}

func randU8(rng *rand.Rand, rows, lanes int) *stepState8 {
	return &stepState8{
		h:    railsU8(rng, rows*lanes),
		e:    railsU8(rng, rows*lanes),
		f:    railsU8(rng, lanes),
		diag: railsU8(rng, lanes),
		maxv: railsU8(rng, lanes),
	}
}

func (s *stepState8) clone() *stepState8 {
	return &stepState8{
		h:    append(U8(nil), s.h...),
		e:    append(U8(nil), s.e...),
		f:    append(U8(nil), s.f...),
		diag: append(U8(nil), s.diag...),
		maxv: append(U8(nil), s.maxv...),
	}
}

func (s *stepState8) diff(t *testing.T, op string, o *stepState8) {
	t.Helper()
	eq8(t, op+" h", s.h, o.h)
	eq8(t, op+" e", s.e, o.e)
	eq8(t, op+" f", s.f, o.f)
	eq8(t, op+" diag", s.diag, o.diag)
	eq8(t, op+" maxv", s.maxv, o.maxv)
}

// TestNativeStepCol8 covers the score-profile byte step; the query-profile
// sweep, the kernel the ladder runs, has TestSweep8QPTiers.
func TestNativeStepCol8(t *testing.T) {
	requireNative(t)
	rng := rand.New(rand.NewSource(64))
	for _, lanes := range []int{32, 64, 128} {
		for _, rows := range []int{1, 2, 7, 33} {
			for trial := 0; trial < 20; trial++ {
				st := randU8(rng, rows, lanes)
				bias := uint8(rng.Intn(32))
				qr := uint8(rng.Intn(256))
				r := uint8(rng.Intn(64))

				score := railsU8(rng, testStride*lanes)
				seq := make([]uint8, rows)
				for i := range seq {
					seq[i] = uint8(rng.Intn(testStride))
				}
				native, generic := st.clone(), st.clone()
				stepCol8SP(&native.h[0], &native.e[0], &native.f[0], &native.diag[0], &native.maxv[0],
					&score[0], &seq[0], rows, lanes, int(bias), int(qr), int(r))
				stepCol8SPGeneric(generic.h, generic.e, generic.f, generic.diag, generic.maxv,
					score, seq, rows, lanes, bias, qr, r)
				native.diff(t, "stepCol8SP", generic)
			}
		}
	}
}

// sweepState is the byte sweep's state: the tile's H and E, the seam rows
// and the tracker.
type sweepState struct {
	h, e, hb, fb, maxv I8
}

func randSweep(rng *rand.Rand, rows, lanes, ncols int) *sweepState {
	return &sweepState{
		h:    railsI8(rng, rows*lanes),
		e:    railsI8(rng, rows*lanes),
		hb:   railsI8(rng, ncols*lanes),
		fb:   railsI8(rng, ncols*lanes),
		maxv: railsI8(rng, lanes),
	}
}

func (s *sweepState) clone() *sweepState {
	return &sweepState{
		h:    append(I8(nil), s.h...),
		e:    append(I8(nil), s.e...),
		hb:   append(I8(nil), s.hb...),
		fb:   append(I8(nil), s.fb...),
		maxv: append(I8(nil), s.maxv...),
	}
}

func (s *sweepState) diff(t *testing.T, op string, o *sweepState) {
	t.Helper()
	eq8(t, op+" h", s.h, o.h)
	eq8(t, op+" e", s.e, o.e)
	eq8(t, op+" hb", s.hb, o.hb)
	eq8(t, op+" fb", s.fb, o.fb)
	eq8(t, op+" maxv", s.maxv, o.maxv)
}

// sweep runs Sweep8QP on the state, passing nil seam rows for a query of
// one tile as core does.
func (s *sweepState) sweep(qp []int8, stride int, cols []uint8, ncols, rows, lanes int, qr, r int8, first, last bool) {
	hb, fb := s.hb, s.fb
	if first && last {
		hb, fb = nil, nil
	}
	Sweep8QP(s.h, s.e, hb, fb, s.maxv, qp, stride, cols, ncols, rows, lanes, qr, r, first, last)
}

// sweepRef is the reference sweep: the generic column step over every lane
// once per column, with the seam copies core made around each step before
// the column loop moved into this package.
func (s *sweepState) sweepRef(qp []int8, stride int, cols []uint8, ncols, rows, lanes int, qr, r int8, first, last bool) {
	f, diag, floor := make(I8, lanes), make(I8, lanes), make(I8, lanes)
	set1I8Generic(floor, MinI8)
	copy(diag, floor)
	for j := 0; j < ncols; j++ {
		seam := s.hb[j*lanes : (j+1)*lanes]
		if first {
			copy(f, floor)
		} else {
			copy(f, s.fb[j*lanes:])
		}
		stepCol8QPGeneric(s.h, s.e, f, diag, s.maxv, qp, stride, cols[j*lanes:(j+1)*lanes], rows, lanes, qr, r)
		if first {
			copy(diag, floor)
		} else {
			copy(diag, seam)
		}
		if !last {
			copy(seam, s.h[(rows-1)*lanes:rows*lanes])
			copy(s.fb[j*lanes:], f)
		}
	}
}

// seamCases are the four places a tile can sit in its query: alone, or the
// first, a middle or the last of several.
var seamCases = []struct {
	name        string
	first, last bool
}{
	{"single", true, true},
	{"first", true, false},
	{"middle", false, false},
	{"last", false, true},
}

// sweepInput draws a query profile with exactly the capacity the native
// bodies demand, so the last row's 32-byte load ends flush with the backing
// array, and the columns' residues. The profile's last letter is the pad,
// MinI8 in every row, and its letter rail scores MaxI8 in every row. Lanes
// 0-3 of every column pin the indices at the edges of the two 16-byte
// halves, lane 3's being the pad, and lane 5 is a rail lane. Lane 6
// (pairLane) alternates: the pad in even columns, the left of each column
// pair the native bodies sweep, and the rail letter in odd ones, the right.
func sweepInput(rng *rand.Rand, stride, rows, lanes, ncols int) (qp []int8, cols []uint8) {
	pad, rail := stride-1, stride/2
	qp = make([]int8, rows*stride, (rows-1)*stride+32)
	for i := range qp {
		switch i % stride {
		case pad:
			qp[i] = MinI8
		case rail:
			qp[i] = MaxI8
		default:
			qp[i] = int8(rng.Intn(256) + MinI8)
		}
	}
	cols = make([]uint8, ncols*lanes)
	for j := 0; j < ncols; j++ {
		col := cols[j*lanes : (j+1)*lanes]
		for i := range col {
			col[i] = uint8(rng.Intn(stride))
		}
		copy(col, []uint8{0, 15, uint8(min(16, stride-1)), uint8(pad)})
		col[5] = uint8(rail)
		col[pairLane] = uint8([]int{pad, rail}[j%2])
	}
	return qp, cols
}

// pairLane is the lane sweepInput gives the pad in even columns and the
// rail letter in odd ones. railRight sets the state so that there the right
// column of the first pair reaches the byte rail while the left column
// cannot: the left column's E enters every row at zero, so its H feeds the
// right column a non-negative diagonal, which the rail letter saturates;
// and with the pad's score, F above the tile and the tracker below the
// rail, nothing lifts the left column's H to it.
const pairLane = 6

func railRight(st *sweepState, rows, lanes int) {
	for ri := 0; ri < rows; ri++ {
		st.e[ri*lanes+pairLane] = 0
	}
	for j := 0; j*lanes < len(st.fb); j++ {
		st.fb[j*lanes+pairLane] = min(st.fb[j*lanes+pairLane], MaxI8-1)
	}
	if len(st.hb) > 0 {
		st.hb[pairLane] = 0
	}
	st.maxv[pairLane] = MinI8
}

// TestSweep8QPTiers replays the byte rung's one kernel through its exported
// entry point under every tier the host runs — the portable loop, the
// vpshufb pair over ymm strips and, where CPUID allows, the vpermb body
// over zmm strips — against the reference sweep: the generic column step
// per column with core's seam copies replayed around it. Lane counts cover
// one and two zmm registers (64, 128) and 96, three ymm registers, which
// the avx2+vbmi tier must hand to the vpshufb body. Table widths cover the
// protein profile (25), a full row register (32) and the DNA profile (16).
// Column counts cover a lone column, one pair, a pair and an odd last
// column, two pairs, and two pairs and an odd last column, each under every
// seam case. Every column has a pad lane and a lane that reaches the byte
// rail (its H above the tile and on the tile's first row sit at the rail
// too), and pairLane reaches the rail in the right column of the first pair
// only, so a body that dropped the right column's tracker fails. State and
// scores are drawn over all of int8 and the penalties over the kernel's
// contract, [0, MaxI8].
func TestSweep8QPTiers(t *testing.T) {
	for _, tr := range Tiers() {
		t.Run(tr.String(), func(t *testing.T) {
			defer CapTier(CapTier(tr))
			for lanes, want := range map[int]bool{32: false, 64: tr == TierVBMI, 96: false, 128: tr == TierVBMI} {
				if got := zmm8(lanes); got != want {
					t.Errorf("zmm8(%d) = %v under %v, want %v", lanes, got, tr, want)
				}
			}
			rng := rand.New(rand.NewSource(67))
			for _, stride := range []int{16, 25, 32} {
				for _, lanes := range []int{32, 64, 96, 128} {
					for _, rows := range []int{1, 2, 7, 33} {
						for _, ncols := range []int{1, 2, 3, 4, 5} {
							for _, sc := range seamCases {
								for trial := 0; trial < 3; trial++ {
									st := randSweep(rng, rows, lanes, ncols)
									railRight(st, rows, lanes)
									st.h[5], st.hb[5] = MaxI8, MaxI8
									qr, r := int8(rng.Intn(MaxI8+1)), int8(rng.Intn(MaxI8+1))
									qp, cols := sweepInput(rng, stride, rows, lanes, ncols)
									got, want := st.clone(), st.clone()
									got.sweep(qp, stride, cols, ncols, rows, lanes, qr, r, sc.first, sc.last)
									want.sweepRef(qp, stride, cols, ncols, rows, lanes, qr, r, sc.first, sc.last)
									got.diff(t, fmt.Sprintf("Sweep8QP stride=%d lanes=%d rows=%d ncols=%d %s", stride, lanes, rows, ncols, sc.name), want)
									if (rows > 1 || !sc.first && ncols > 1) && want.maxv[5] != MaxI8 {
										t.Fatalf("rows=%d ncols=%d %s: the rail lane stayed at %d", rows, ncols, sc.name, want.maxv[5])
									}
									if pair := ncols > 1 && (rows > 1 || !sc.first); pair != (want.maxv[pairLane] == MaxI8) {
										t.Fatalf("rows=%d ncols=%d %s: lane %d ended at %d, want the rail only from a pair's right column", rows, ncols, sc.name, pairLane, want.maxv[pairLane])
									}
								}
							}
						}
					}
				}
			}
		})
	}
}

// FuzzSweep8QP holds every tier's sweep to the reference on fuzzed shapes:
// profile stride, lane count (mostly whole ymm and zmm registers, the rest
// odd widths the portable loop takes), rows, columns and seam case, with
// state, scores and residues drawn from the input bytes over all of int8
// and the penalties over [0, MaxI8].
func FuzzSweep8QP(f *testing.F) {
	f.Add([]byte{0x7f, 0x80, 0, 1}, uint8(24), uint8(1), uint8(6), uint8(1), uint8(0), uint8(12), uint8(2))
	f.Add([]byte{0xff, 0x7f, 0x7e, 0x80}, uint8(31), uint8(3), uint8(32), uint8(4), uint8(2), uint8(127), uint8(127))
	f.Add([]byte{}, uint8(15), uint8(200), uint8(0), uint8(0), uint8(3), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, strideB, lanesB, rowsB, ncolsB, seam, qrB, rB uint8) {
		stride := 1 + int(strideB)%40
		lanes := 32 * (1 + int(lanesB)%4)
		if lanesB >= 192 {
			lanes = 1 + int(lanesB)%64
		}
		rows, ncols := 1+int(rowsB)%40, 1+int(ncolsB)%9
		first, last := seam&1 != 0, seam&2 != 0
		qr, r := int8(qrB%(MaxI8+1)), int8(rB%(MaxI8+1))

		seed := int64(len(data))
		for _, b := range data {
			seed = seed*131 + int64(b)
		}
		rng := rand.New(rand.NewSource(seed))
		next := func() int8 {
			if len(data) > 0 {
				b := data[0]
				data = data[1:]
				return int8(b)
			}
			return int8(rng.Intn(256) + MinI8)
		}
		fill := func(n int) I8 {
			out := make(I8, n)
			for i := range out {
				out[i] = next()
			}
			return out
		}
		st := &sweepState{h: fill(rows * lanes), e: fill(rows * lanes), hb: fill(ncols * lanes), fb: fill(ncols * lanes), maxv: fill(lanes)}
		qp := make([]int8, rows*stride, max(rows*stride, (rows-1)*stride+32))
		copy(qp, fill(rows*stride))
		cols := make([]uint8, ncols*lanes)
		for i := range cols {
			cols[i] = uint8(next()) % uint8(stride)
		}

		want := st.clone()
		want.sweepRef(qp, stride, cols, ncols, rows, lanes, qr, r, first, last)
		for _, tr := range Tiers() {
			func() {
				defer CapTier(CapTier(tr))
				got := st.clone()
				got.sweep(qp, stride, cols, ncols, rows, lanes, qr, r, first, last)
				got.diff(t, fmt.Sprintf("%v stride=%d lanes=%d rows=%d ncols=%d first=%v last=%v", tr, stride, lanes, rows, ncols, first, last), want)
			}()
		}
	})
}

func TestNativeBuildRows(t *testing.T) {
	requireNative(t)
	rng := rand.New(rand.NewSource(65))
	const nrows = testStride
	for _, lanes := range []int{16, 32, 64, 128} {
		for trial := 0; trial < 20; trial++ {
			idx := make([]uint8, lanes)
			for i := range idx {
				idx[i] = uint8(rng.Intn(testStride))
			}

			if lanes%16 == 0 {
				table := make([]int16, nrows*testStride, nrows*testStride+2)
				for i := range table {
					table[i] = int16(rng.Intn(1 << 16))
				}
				got := make([]int16, nrows*lanes)
				want := make([]int16, nrows*lanes)
				buildRows16(&got[0], &table[0], &idx[0], nrows, lanes, testStride)
				buildRows16Generic(want, table, idx, nrows, lanes, testStride)
				eqI16(t, "buildRows16", got, want)
			}
		}
	}
}

// TestDispatchFallbacks pins the dispatch rules: odd lane counts and the
// portable override always take the generic path (observable because the
// exported wrappers agree with the generics everywhere).
func TestDispatchFallbacks(t *testing.T) {
	if native16(15) || native16(17) || native16(0) {
		t.Fatal("native16 accepted a non-multiple-of-16 width")
	}
	if native8(31) || native8(33) || native8(0) {
		t.Fatal("native8 accepted a non-multiple-of-32 width")
	}
	prev := CapTier(TierPortable)
	if native16(16) || native8(32) {
		t.Fatal("portable cap did not disable native dispatch")
	}
	if Backend() != "portable" || Native() || len(Tiers()) != 1 {
		t.Fatal("Backend()/Native()/Tiers() disagree with the portable cap")
	}
	if Info().Forced != (hostTier != TierPortable) {
		t.Fatal("Info().Forced does not report the cap")
	}
	if got := CapTier(TierAVX2); got != TierPortable {
		t.Fatal("CapTier did not report the previous cap")
	}
	if want := min(hostTier, TierAVX2); tier() != want || Backend() != want.String() {
		t.Fatalf("capped at avx2 the host runs %q, want %q", Backend(), want)
	}
	if capped := strings.Contains(Info().String(), "capped"); capped != (hostTier == TierVBMI) {
		t.Fatalf("capped at avx2 on a %v host, Info().String() = %q", hostTier, Info().String())
	}
	CapTier(prev)
	for _, tr := range Tiers() {
		prev := CapTier(tr)
		info := Info()
		CapTier(prev)
		if want := [...]int{0, 32, 64}[tr]; info.Lanes8 != want || info.Lanes16 != min(want, 16) {
			t.Errorf("under %v Info() reports %d/%d int16/uint8 lanes, want %d/%d", tr, info.Lanes16, info.Lanes8, min(want, 16), want)
		}
	}

	for _, c := range []struct {
		info BackendInfo
		want string
	}{
		{BackendInfo{Backend: "avx2+vbmi", AVX2: true}, "avx2+vbmi (16x int16 lanes per ymm; 64x uint8 lanes per zmm; vpermb byte lookup)"},
		{BackendInfo{Backend: "avx2", AVX2: true}, "avx2 (16x int16 / 32x uint8 lanes per register)"},
		{BackendInfo{Backend: "avx2", AVX2: true, Forced: true}, "avx2 (16x int16 / 32x uint8 lanes per register; avx2+vbmi available but capped)"},
		{BackendInfo{Backend: "portable", AVX2: true, Forced: true}, "portable (pure Go; avx2 available but overridden)"},
		{BackendInfo{Backend: "portable"}, "portable (pure Go; host lacks AVX2 or binary built without it)"},
	} {
		if got := c.info.String(); got != c.want {
			t.Errorf("%+v.String() = %q, want %q", c.info, got, c.want)
		}
	}
}

// TestBackendInfo logs the vec tier that serves this run and the byte lane
// width it packs, so a reader of a test log (CI runs it with -v) knows
// which sweep body the suite exercised: the zmm body on avx2+vbmi, the
// vpshufb body on avx2, the portable loop otherwise.
func TestBackendInfo(t *testing.T) {
	info := Info()
	t.Logf("vec backend: %v; tiers: %v; %d byte lanes per group", info, Tiers(), info.Lanes8)
}

// TestForcedPortableParityExported runs the exported 16-bit entry points
// under both backends on the same inputs; on non-AVX2 hosts both runs take
// the generic path and the test degenerates to self-consistency.
func TestForcedPortableParityExported(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	const rows, lanes = 7, 64
	st := randStep16(rng, rows, lanes)
	score := railsI16(rng, testStride*lanes)
	seq := make([]uint8, rows)
	for i := range seq {
		seq[i] = uint8(rng.Intn(testStride))
	}
	nat, port := st.clone(), st.clone()
	StepCol16SP(nat.h, nat.e, nat.f, nat.diag, nat.maxv, score, seq, rows, lanes, 12, 2)
	prev := CapTier(TierPortable)
	StepCol16SP(port.h, port.e, port.f, port.diag, port.maxv, score, seq, rows, lanes, 12, 2)
	CapTier(prev)
	nat.diff(t, "StepCol16SP backends", port)
	if g, w := HorizontalMax(nat.maxv), horizontalMaxGeneric(port.maxv); g != w {
		t.Fatalf("HorizontalMax = %d, generic %d", g, w)
	}
}

// BenchmarkStepCol8QP times the byte rung's one kernel, a sweep of one
// query tile across 2,048 columns over a protein-width profile one register
// of the tier wide (64 lanes, a zmm, on avx2+vbmi; 32, a ymm, on avx2 and
// for the portable loop) — the width the host packs its lane groups for —
// under every tier the host runs and at serving (30, 75, 120 rows) and
// tile-filling (1000) query lengths: the vec-layer roof the lane-group and
// search benchmarks are read against. The name is the column step's the
// sweep replaced, kept so the rows stay comparable with the committed
// baseline. 256 and 512 rows are the byte tile's height on 64 lanes at a
// 32 KiB and a 64 KiB budget (core's tileBytes): between them the 64-lane
// H+E slab outgrows a 48 KiB L1d, and the rate drops by 12-22% on such a
// part. The 1- and 8-row cases expose the per-column floor, which ns/col
// reports beside the cell rate: a fixed cost per column (such as the ~172
// ns legacy-SSE transition TestAsmVEXClean forbids, were it inside the
// column loop) shows as a 30-row rate far below the 1000-row one.
func BenchmarkStepCol8QP(b *testing.B) {
	const columns = 2048
	rng := rand.New(rand.NewSource(69))
	for _, tr := range Tiers() {
		lanes := max(byteWidth(tr), byteWidth(TierAVX2))
		cols := make([]uint8, columns*lanes)
		for i := range cols {
			cols[i] = uint8(rng.Intn(testStride))
		}
		for _, rows := range []int{1, 8, 30, 75, 120, 256, 512, 1000} {
			b.Run(fmt.Sprintf("%v/rows=%d", tr, rows), func(b *testing.B) {
				st := randSweep(rng, rows, lanes, 0)
				qp := make([]int8, rows*testStride, (rows-1)*testStride+32)
				for i := range qp {
					qp[i] = int8(rng.Intn(16) - 4)
				}
				benchColumns(b, tr, rows*lanes, columns, func() {
					Sweep8QP(st.h, st.e, nil, nil, st.maxv, qp, testStride, cols, columns, rows, lanes, 12, 2, true, true)
				})
			})
		}
	}
}

// BenchmarkStepCol16SP times the 16-bit rung's column step, 16 lanes over a
// score-profile table, under every tier the host runs at a serving (30)
// and a tile-filling (1000) query length. It is the kernel of the ladder's
// escalation rung and of the striped long-sequence path.
func BenchmarkStepCol16SP(b *testing.B) {
	const lanes, columns = 16, 2048
	rng := rand.New(rand.NewSource(70))
	score := make([]int16, testStride*lanes)
	for i := range score {
		score[i] = int16(rng.Intn(15) - 4)
	}
	for _, tr := range Tiers() {
		for _, rows := range []int{30, 1000} {
			b.Run(fmt.Sprintf("%v/rows=%d", tr, rows), func(b *testing.B) {
				h, e := make(I16, rows*lanes), make(I16, rows*lanes)
				f, diag, maxv := make(I16, lanes), make(I16, lanes), make(I16, lanes)
				set1Generic(e, MinI16)
				set1Generic(f, MinI16)
				seq := make([]uint8, rows)
				for i := range seq {
					seq[i] = uint8(rng.Intn(testStride))
				}
				benchColumns(b, tr, rows*lanes, columns, func() {
					for c := 0; c < columns; c++ {
						StepCol16SP(h, e, f, diag, maxv, score, seq, rows, lanes, 12, 2)
					}
				})
			})
		}
	}
}

// benchColumns times sweep, one pass over columns database columns of
// cells cells each, with the tier capped at tr. One iteration sweeps often
// enough (after a warm-up sweep) that CI's single -benchtime=1x sample
// times milliseconds of work. It reports the cell rate and the cost per
// column.
func benchColumns(b *testing.B, tr Tier, cells, columns int, sweep func()) {
	defer CapTier(CapTier(tr))
	budget := 1 << 26 // cells per iteration
	if tr == TierPortable {
		budget = 1 << 22
	}
	sweeps := max(1, budget/(cells*columns))
	sweep()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s := 0; s < sweeps; s++ {
			sweep()
		}
	}
	n := float64(b.N) * float64(sweeps*columns)
	b.ReportMetric(n*float64(cells)/b.Elapsed().Seconds()/1e6, "Mcells/s")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/col")
}
