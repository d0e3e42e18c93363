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

// stepState8 is the byte steps' state: unsigned for StepCol8SP, signed for
// StepCol8QP.
type stepState8[T int8 | uint8] struct {
	h, e, f, diag, maxv []T
}

func randStep8[T int8 | uint8](rng *rand.Rand, rows, lanes int, rails func(*rand.Rand, int) []T) *stepState8[T] {
	return &stepState8[T]{
		h:    rails(rng, rows*lanes),
		e:    rails(rng, rows*lanes),
		f:    rails(rng, lanes),
		diag: rails(rng, lanes),
		maxv: rails(rng, lanes),
	}
}

// randU8 and randI8 draw unsigned and signed byte-step state.
func randU8(rng *rand.Rand, rows, lanes int) *stepState8[uint8] {
	return randStep8(rng, rows, lanes, func(rng *rand.Rand, n int) []uint8 { return railsU8(rng, n) })
}

func randI8(rng *rand.Rand, rows, lanes int) *stepState8[int8] {
	return randStep8(rng, rows, lanes, func(rng *rand.Rand, n int) []int8 { return railsI8(rng, n) })
}

func (s *stepState8[T]) clone() *stepState8[T] {
	return &stepState8[T]{
		h:    append([]T(nil), s.h...),
		e:    append([]T(nil), s.e...),
		f:    append([]T(nil), s.f...),
		diag: append([]T(nil), s.diag...),
		maxv: append([]T(nil), s.maxv...),
	}
}

func (s *stepState8[T]) diff(t *testing.T, op string, o *stepState8[T]) {
	t.Helper()
	eq8(t, op+" h", s.h, o.h)
	eq8(t, op+" e", s.e, o.e)
	eq8(t, op+" f", s.f, o.f)
	eq8(t, op+" diag", s.diag, o.diag)
	eq8(t, op+" maxv", s.maxv, o.maxv)
}

// TestNativeStepCol8 covers the score-profile byte step; the query-profile
// one, the kernel the ladder runs, has TestStepCol8QPTiers.
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

// TestStepCol8QPTiers replays the byte rung's one kernel through its
// exported entry point under every tier the host runs — the portable loop,
// the vpshufb pair over ymm strips and, where CPUID allows, the vpermb body
// over zmm strips — against the generic reference. Lane counts cover one
// and two zmm registers (64, 128) and 96, three ymm registers, which the
// avx2+vbmi tier must hand to the vpshufb body. Table widths cover the
// protein profile (25), a full row register (32) and the DNA profile (16);
// the first lanes of every column pin the indices at the edges of the two
// 16-byte halves; and each profile has exactly the capacity the wrapper
// demands, so the last row's 32-byte load ends flush with the backing
// array. Scores are drawn over all of int8 and the penalties over the
// kernel's contract, [0, MaxI8].
func TestStepCol8QPTiers(t *testing.T) {
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
						for trial := 0; trial < 10; trial++ {
							st := randI8(rng, rows, lanes)
							qr, r := int8(rng.Intn(MaxI8+1)), int8(rng.Intn(MaxI8+1))
							qp := make([]int8, rows*stride, (rows-1)*stride+32)
							for i := range qp {
								qp[i] = int8(rng.Intn(256) + MinI8)
							}
							col := make([]uint8, lanes)
							for i := range col {
								col[i] = uint8(rng.Intn(stride))
							}
							copy(col, []uint8{0, 15, uint8(min(16, stride-1)), uint8(stride - 1)})
							got, want := st.clone(), st.clone()
							StepCol8QP(got.h, got.e, got.f, got.diag, got.maxv, qp, stride, col, rows, lanes, qr, r)
							stepCol8QPGeneric(want.h, want.e, want.f, want.diag, want.maxv, qp, stride, col, rows, lanes, qr, r)
							got.diff(t, fmt.Sprintf("StepCol8QP stride=%d", stride), want)
						}
					}
				}
			}
		})
	}
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

// BenchmarkStepCol8QP times the byte rung's one kernel, a column step over
// a protein-width profile one register of the tier wide (64 lanes, a zmm,
// on avx2+vbmi; 32, a ymm, on avx2 and for the portable loop) — the width
// the host packs its lane groups for — under every tier the host runs and
// at serving (30, 75, 120 rows) and tile-filling (1000) query lengths: the
// vec-layer roof the lane-group and search benchmarks are read against.
// 256 and 512 rows are the byte tile's height on 64 lanes at a 32 KiB and
// a 64 KiB budget (core's tileBytes): between them the 64-lane H+E slab
// outgrows a 48 KiB L1d, and the rate drops by 12-22% on such a part.
// The 1- and 8-row cases expose the per-call floor, which ns/call reports
// beside the cell rate: a fixed cost per call (such as the ~172 ns
// legacy-SSE transition TestAsmVEXClean forbids) shows as a 30-row rate
// far below the 1000-row one.
func BenchmarkStepCol8QP(b *testing.B) {
	const columns = 2048
	rng := rand.New(rand.NewSource(69))
	cols := make([]uint8, columns*byteWidth(TierVBMI))
	for i := range cols {
		cols[i] = uint8(rng.Intn(testStride))
	}
	for _, tr := range Tiers() {
		lanes := max(byteWidth(tr), byteWidth(TierAVX2))
		for _, rows := range []int{1, 8, 30, 75, 120, 256, 512, 1000} {
			b.Run(fmt.Sprintf("%v/rows=%d", tr, rows), func(b *testing.B) {
				st := randI8(rng, rows, lanes)
				qp := make([]int8, rows*testStride, (rows-1)*testStride+32)
				for i := range qp {
					qp[i] = int8(rng.Intn(16) - 4)
				}
				benchColumns(b, tr, rows*lanes, columns, func(c int) {
					StepCol8QP(st.h, st.e, st.f, st.diag, st.maxv, qp, testStride, cols[c*lanes:(c+1)*lanes], rows, lanes, 12, 2)
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
				benchColumns(b, tr, rows*lanes, columns, func(int) {
					StepCol16SP(h, e, f, diag, maxv, score, seq, rows, lanes, 12, 2)
				})
			})
		}
	}
}

// benchColumns times step(c) for c in [0, columns), each call computing
// cells cells, with the tier capped at tr. One iteration sweeps the
// columns often enough (after a warm-up sweep) that CI's single
// -benchtime=1x sample times milliseconds of work. It reports the cell
// rate and the cost per call.
func benchColumns(b *testing.B, tr Tier, cells, columns int, step func(c int)) {
	defer CapTier(CapTier(tr))
	budget := 1 << 26 // cells per iteration
	if tr == TierPortable {
		budget = 1 << 22
	}
	sweeps := max(1, budget/(cells*columns))
	sweep := func() {
		for c := 0; c < columns; c++ {
			step(c)
		}
	}
	sweep()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s := 0; s < sweeps; s++ {
			sweep()
		}
	}
	calls := float64(b.N) * float64(sweeps*columns)
	b.ReportMetric(calls*float64(cells)/b.Elapsed().Seconds()/1e6, "Mcells/s")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/calls, "ns/call")
}
