package device

import (
	"testing"
)

func classes() []KernelClass {
	return []KernelClass{
		{Scalar: true},
		{Guided: true, QueryProfile: true},
		{Guided: true},
		{QueryProfile: true},
		{}, // intrinsic SP
		{Blocked: true},
		{Blocked: true, QueryProfile: true},
	}
}

func TestBuiltinsValidate(t *testing.T) {
	for name, m := range Devices() {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if m.Short != name {
			t.Errorf("map key %q != Short %q", name, m.Short)
		}
	}
}

func TestValidateCatchesBadModels(t *testing.T) {
	m := Xeon()
	m.SMT = []float64{1}
	if err := m.Validate(); err == nil {
		t.Error("short SMT curve accepted")
	}
	m = Phi()
	m.PCIeBytesPerSec = 0
	if err := m.Validate(); err == nil {
		t.Error("offload device without PCIe accepted")
	}
	m = Xeon()
	m.Cores = 0
	if err := m.Validate(); err == nil {
		t.Error("zero cores accepted")
	}
}

func TestThreadRateMonotoneAggregate(t *testing.T) {
	for _, m := range []*Model{Xeon(), Phi()} {
		prev := 0.0
		for threads := 1; threads <= m.MaxThreads(); threads++ {
			agg := m.ThreadRate(threads) * float64(threads)
			if agg < prev*0.999 {
				t.Fatalf("%s: aggregate rate drops at %d threads: %v -> %v", m.Short, threads, prev, agg)
			}
			prev = agg
		}
	}
}

func TestThreadRateClamps(t *testing.T) {
	m := Xeon()
	if m.ThreadRate(0) != m.ThreadRate(1) {
		t.Error("ThreadRate(0) not clamped to 1")
	}
	if m.ThreadRate(1000) != m.ThreadRate(m.MaxThreads()) {
		t.Error("ThreadRate above MaxThreads not clamped")
	}
}

func TestPhiNeedsSMTForThroughput(t *testing.T) {
	phi := Phi()
	one := phi.ThreadRate(60) * 60   // 1 thread/core
	two := phi.ThreadRate(120) * 120 // 2 threads/core
	if two < one*1.5 {
		t.Fatalf("Phi 2 threads/core aggregate %v not ~2x of 1/core %v", two, one)
	}
	xeon := Xeon()
	ht := xeon.ThreadRate(32) * 32
	st := xeon.ThreadRate(16) * 16
	if ht <= st || ht > st*1.7 {
		t.Fatalf("Xeon HT gain out of range: %v vs %v", ht, st)
	}
}

func TestGroupCostOrdering(t *testing.T) {
	s := Shape{Width: 400, Lanes: 16, Residues: 6000}
	const M, T = 1000, 32
	for _, m := range []*Model{Xeon(), Phi()} {
		s.Lanes = m.Lanes
		s.Residues = int64(s.Width*m.Lanes) * 95 / 100
		intrSP := m.GroupCost(KernelClass{Blocked: true}, M, s, T, 0)
		intrQP := m.GroupCost(KernelClass{Blocked: true, QueryProfile: true}, M, s, T, 0)
		guidSP := m.GroupCost(KernelClass{Blocked: true, Guided: true}, M, s, T, 0)
		guidQP := m.GroupCost(KernelClass{Blocked: true, Guided: true, QueryProfile: true}, M, s, T, 0)
		if !(intrSP < intrQP) {
			t.Errorf("%s: intrinsic SP %v !< QP %v", m.Short, intrSP, intrQP)
		}
		if !(intrSP < guidSP) || !(intrQP < guidQP) {
			t.Errorf("%s: intrinsic not cheaper than guided", m.Short)
		}
		// Scalar cost per cell must dwarf the vector kernels.
		scalar := m.GroupCost(KernelClass{Scalar: true}, M, Shape{Width: 400, Lanes: 1, Residues: 400}, T, 0)
		perCellScalar := scalar / float64(M*400)
		perCellVec := intrSP / float64(M*s.Width*m.Lanes)
		if perCellScalar < 5*perCellVec {
			t.Errorf("%s: scalar per-cell %v not >> vector %v", m.Short, perCellScalar, perCellVec)
		}
	}
}

func TestBlockingRemovesMemoryPenaltyForLongQueries(t *testing.T) {
	// Long query: non-blocked working set exceeds cache, blocked does not.
	const M = 5478
	for _, m := range []*Model{Xeon(), Phi()} {
		s := Shape{Width: 400, Lanes: m.Lanes, Residues: int64(400 * m.Lanes)}
		T := m.MaxThreads()
		blocked := m.GroupCost(KernelClass{Blocked: true}, M, s, T, 0)
		unblocked := m.GroupCost(KernelClass{}, M, s, T, 0)
		if blocked >= unblocked {
			t.Errorf("%s: blocked %v >= unblocked %v at M=%d", m.Short, blocked, unblocked, M)
		}
		// Relative blocking benefit must be larger on the Phi (Fig. 7).
	}
	phi, xeon := Phi(), Xeon()
	rel := func(m *Model) float64 {
		s := Shape{Width: 400, Lanes: m.Lanes, Residues: int64(400 * m.Lanes)}
		T := m.MaxThreads()
		b := m.GroupCost(KernelClass{Blocked: true}, M, s, T, 0)
		u := m.GroupCost(KernelClass{}, M, s, T, 0)
		return u / b
	}
	if rel(phi) <= rel(xeon) {
		t.Errorf("blocking speedup Phi %v <= Xeon %v", rel(phi), rel(xeon))
	}
}

func TestShortQueriesUnaffectedByBlocking(t *testing.T) {
	// At M=144 both fit in cache; blocked should not be dramatically
	// different from unblocked (only boundary overhead).
	for _, m := range []*Model{Xeon(), Phi()} {
		s := Shape{Width: 400, Lanes: m.Lanes, Residues: int64(400 * m.Lanes)}
		b := m.GroupCost(KernelClass{Blocked: true}, 144, s, m.MaxThreads(), 0)
		u := m.GroupCost(KernelClass{}, 144, s, m.MaxThreads(), 0)
		ratio := b / u
		if ratio < 0.95 || ratio > 1.05 {
			t.Errorf("%s: short-query blocked/unblocked ratio %v", m.Short, ratio)
		}
	}
}

func TestGroupCostScalesWithWork(t *testing.T) {
	m := Xeon()
	s1 := Shape{Width: 100, Lanes: 16, Residues: 1500}
	s2 := Shape{Width: 200, Lanes: 16, Residues: 3000}
	c1 := m.GroupCost(KernelClass{}, 500, s1, 32, 0)
	c2 := m.GroupCost(KernelClass{}, 500, s2, 32, 0)
	if c2 < c1*1.8 || c2 > c1*2.2 {
		t.Errorf("double width cost ratio %v", c2/c1)
	}
	if m.GroupCost(KernelClass{}, 0, s1, 32, 0) != m.GroupCycles {
		t.Error("empty query not charged group overhead only")
	}
}

func TestOverflowCellsCharged(t *testing.T) {
	m := Phi()
	s := Shape{Width: 100, Lanes: 32, Residues: 3200}
	base := m.GroupCost(KernelClass{}, 300, s, 240, 0)
	with := m.GroupCost(KernelClass{}, 300, s, 240, 50000)
	if with-base < 50000*m.ScalarIterCycles*0.99 {
		t.Errorf("overflow recompute undercharged: %v", with-base)
	}
}

func TestTransferSeconds(t *testing.T) {
	phi := Phi()
	xeon := Xeon()
	if xeon.TransferSeconds(1<<30) != 0 {
		t.Error("host device charged transfer time")
	}
	tiny := phi.TransferSeconds(0)
	if tiny != phi.PCIeLatencySec {
		t.Errorf("zero-byte transfer = %v, want latency %v", tiny, phi.PCIeLatencySec)
	}
	big := phi.TransferSeconds(6_000_000_000)
	if big < 1.0 || big > 1.1 {
		t.Errorf("6 GB transfer = %v s, want ~1s", big)
	}
}

func TestByteSizing(t *testing.T) {
	if got := DatabaseBytes(1000, 10); got != 1000+160 {
		t.Errorf("DatabaseBytes = %d", got)
	}
	if got := QueryBytes(100); got != 100+100*50+matrixBytes {
		t.Errorf("QueryBytes = %d", got)
	}
	if got := ScoreBytes(541561); got != 541561*8 {
		t.Errorf("ScoreBytes = %d", got)
	}
}

func TestOffloadSecondsPhiVsHost(t *testing.T) {
	phi := Phi()
	xeon := Xeon()
	compute := 2.0
	// Host regions add no transfer time.
	if got := xeon.OffloadSeconds(1<<30, 1<<20, compute); got != compute {
		t.Errorf("host region = %v, want %v", got, compute)
	}
	// Phi regions add both directions plus latency.
	got := phi.OffloadSeconds(6_000_000_000, 0, compute)
	want := compute + 1.0 + 2*phi.PCIeLatencySec
	if got < want*0.99 || got > want*1.01 {
		t.Errorf("phi region = %v, want ~%v", got, want)
	}
}

func TestGatherContentionRaisesQPCostWithCores(t *testing.T) {
	m := Xeon()
	s := Shape{Width: 355, Lanes: 16, Residues: 16 * 350}
	qpLow := m.GroupCost(KernelClass{QueryProfile: true, Blocked: true}, 1000, s, 1, 0)
	qpHigh := m.GroupCost(KernelClass{QueryProfile: true, Blocked: true}, 1000, s, 16, 0)
	spLow := m.GroupCost(KernelClass{Blocked: true}, 1000, s, 1, 0)
	spHigh := m.GroupCost(KernelClass{Blocked: true}, 1000, s, 16, 0)
	if !(qpHigh/qpLow > spHigh/spLow) {
		t.Errorf("QP cost ratio %v not above SP ratio %v", qpHigh/qpLow, spHigh/spLow)
	}
}

// Coeffs must agree exactly with GroupCost for every class and shape:
// the bulk experiment path and the engine path share one cost model.
func TestCoeffsMatchGroupCost(t *testing.T) {
	shapes := []Shape{
		{Width: 355, Lanes: 16, Residues: 16 * 340},
		{Width: 3000, Lanes: 32, Residues: 32 * 2900},
		{Width: 12, Lanes: 16, Residues: 40},
		{Width: 9000, Lanes: 1, Residues: 9000, Intra: true},
	}
	for _, m := range []*Model{Xeon(), Phi()} {
		for _, k := range classes() {
			for _, threads := range []int{1, 16, 32, 240} {
				if threads > m.MaxThreads() {
					continue
				}
				for _, M := range []int{144, 1000, 5478} {
					for _, s := range shapes {
						lanes := s.Lanes
						var want float64
						if s.Intra {
							want = m.IntraCoeffs(M).Cost(s)
						} else if k.Scalar {
							want = m.Coeffs(k, M, 1, threads).Cost(s)
						} else {
							want = m.Coeffs(k, M, lanes, threads).Cost(s)
						}
						var got float64
						if k.Scalar && !s.Intra {
							got = m.GroupCost(k, M, s, threads, 0)
							want = m.Coeffs(k, M, lanes, threads).Cost(s)
						} else {
							got = m.GroupCost(k, M, s, threads, 0)
						}
						if got != want {
							t.Fatalf("%s %+v threads=%d M=%d shape=%+v: GroupCost %v != Coeffs %v",
								m.Short, k, threads, M, s, got, want)
						}
					}
				}
			}
		}
	}
}
