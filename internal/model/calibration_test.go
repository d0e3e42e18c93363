package model

// Calibration lock: these tests pin the simulated figures to the GCUPS
// values the paper states in its text (swbench -fig all prints them beside
// the reproduced numbers). If a device constant in
// internal/device/params.go changes, the failing assertion names the paper
// number that broke.

import (
	"testing"

	"heterosw/internal/core"
	"heterosw/internal/device"
	"heterosw/internal/sched"
)

// calibScale is 1.0: the calibration is pinned at the paper's full
// Swiss-Prot size (541,561 sequences). Scheduling-tail effects depend on
// the ratio of the largest chunk to the per-thread share, so reduced
// scales would distort the Phi's 240-thread numbers.
const calibScale = 1.0

var calibW = NewWorkload(calibScale)

func cfg(dev *device.Model, v core.Variant, threads int) Config {
	return Config{Dev: dev, Variant: v, Threads: threads, Policy: sched.Dynamic}
}

// within asserts got is within frac of want.
func within(t *testing.T, name string, got, want, frac float64) {
	t.Helper()
	if got < want*(1-frac) || got > want*(1+frac) {
		t.Errorf("%s = %.2f, want %.2f +/- %.0f%%", name, got, want, frac*100)
	}
}

func TestXeonHeadlineGCUPS(t *testing.T) {
	xeon := device.Xeon()
	// Stated in the text: best Xeon result 30.4 GCUPS (intrinsic-SP, 32T).
	within(t, "Xeon intrinsic-SP @32T", calibW.AggregateGCUPS(cfg(xeon, core.IntrinsicSP, 32)), 30.4, 0.10)
	// Fig. 4 plateau values stated in the text.
	within(t, "Xeon intrinsic-SP @M=5478", calibW.GCUPS(cfg(xeon, core.IntrinsicSP, 32), 5478), 32.0, 0.10)
	within(t, "Xeon simd-SP @M=5478", calibW.GCUPS(cfg(xeon, core.GuidedSP, 32), 5478), 25.1, 0.10)
	// "The two non-vectorised versions hardly offer performances."
	for _, v := range []core.Variant{core.NoVecQP, core.NoVecSP} {
		g := calibW.AggregateGCUPS(cfg(xeon, v, 32))
		if g > 3 {
			t.Errorf("Xeon %v @32T = %.2f GCUPS; paper says 'hardly offer performances'", v, g)
		}
	}
}

func TestXeonEfficiency(t *testing.T) {
	xeon := device.Xeon()
	base := calibW.AggregateGCUPS(cfg(xeon, core.IntrinsicSP, 1))
	eff := func(v core.Variant, threads int) float64 {
		b := base
		if v != core.IntrinsicSP {
			b = calibW.AggregateGCUPS(cfg(xeon, v, 1))
		}
		return calibW.AggregateGCUPS(cfg(xeon, v, threads)) / (float64(threads) * b)
	}
	// Section V.C.1: 99% @4T, 88% @16T, 70% @32T for intrinsic-SP.
	within(t, "intrinsic-SP efficiency @4T", eff(core.IntrinsicSP, 4), 0.99, 0.04)
	within(t, "intrinsic-SP efficiency @16T", eff(core.IntrinsicSP, 16), 0.88, 0.04)
	within(t, "intrinsic-SP efficiency @32T", eff(core.IntrinsicSP, 32), 0.70, 0.04)
	// 73% @16T for intrinsic-QP.
	within(t, "intrinsic-QP efficiency @16T", eff(core.IntrinsicQP, 16), 0.73, 0.04)
}

func TestPhiHeadlineGCUPS(t *testing.T) {
	phi := device.Phi()
	// Section V.C.2: maxima of the four vectorised variants at 240T.
	within(t, "Phi simd-QP @240T", calibW.AggregateGCUPS(cfg(phi, core.GuidedQP, 240)), 13.6, 0.10)
	within(t, "Phi simd-SP @240T", calibW.AggregateGCUPS(cfg(phi, core.GuidedSP, 240)), 14.5, 0.10)
	within(t, "Phi intrinsic-QP @240T", calibW.AggregateGCUPS(cfg(phi, core.IntrinsicQP, 240)), 27.1, 0.10)
	within(t, "Phi intrinsic-SP @240T", calibW.AggregateGCUPS(cfg(phi, core.IntrinsicSP, 240)), 34.9, 0.10)
	for _, v := range []core.Variant{core.NoVecQP, core.NoVecSP} {
		g := calibW.AggregateGCUPS(cfg(phi, v, 240))
		if g > 3 {
			t.Errorf("Phi %v @240T = %.2f GCUPS; paper says 'barely exhibit performances'", v, g)
		}
	}
}

func TestPhiThreadScalingMonotone(t *testing.T) {
	phi := device.Phi()
	for _, v := range []core.Variant{core.GuidedSP, core.IntrinsicQP, core.IntrinsicSP} {
		prev := 0.0
		for _, threads := range PhiThreadCounts() {
			g := calibW.AggregateGCUPS(cfg(phi, v, threads))
			if g <= prev {
				t.Errorf("Phi %v not scalable: %.2f GCUPS at %dT <= %.2f before", v, g, threads, prev)
			}
			prev = g
		}
	}
}

func TestVariantOrdering(t *testing.T) {
	// On both devices: no-vec < guided < intrinsic, and QP < SP within
	// each vectorised tier (Figures 3 and 5).
	for _, dev := range []*device.Model{device.Xeon(), device.Phi()} {
		g := make(map[core.Variant]float64)
		for _, v := range core.Variants() {
			g[v] = calibW.AggregateGCUPS(cfg(dev, v, dev.MaxThreads()))
		}
		if !(g[core.NoVecSP] < g[core.GuidedQP]) {
			t.Errorf("%s: no-vec %.2f !< simd-QP %.2f", dev.Short, g[core.NoVecSP], g[core.GuidedQP])
		}
		if !(g[core.GuidedQP] < g[core.GuidedSP]) {
			t.Errorf("%s: simd-QP %.2f !< simd-SP %.2f", dev.Short, g[core.GuidedQP], g[core.GuidedSP])
		}
		if !(g[core.GuidedSP] < g[core.IntrinsicSP]) {
			t.Errorf("%s: simd-SP %.2f !< intrinsic-SP %.2f", dev.Short, g[core.GuidedSP], g[core.IntrinsicSP])
		}
		if !(g[core.IntrinsicQP] < g[core.IntrinsicSP]) {
			t.Errorf("%s: intrinsic-QP %.2f !< intrinsic-SP %.2f", dev.Short, g[core.IntrinsicQP], g[core.IntrinsicSP])
		}
	}
}

func TestQueryLengthTrends(t *testing.T) {
	// Fig. 6: the Phi gains clearly with query length; Fig. 4: the Xeon is
	// comparatively flat with a light upward SP trend.
	phi, xeon := device.Phi(), device.Xeon()
	for _, v := range []core.Variant{core.GuidedSP, core.IntrinsicQP, core.IntrinsicSP} {
		shortQ := calibW.GCUPS(cfg(phi, v, 240), 144)
		longQ := calibW.GCUPS(cfg(phi, v, 240), 5478)
		if longQ < shortQ*1.10 {
			t.Errorf("Phi %v: no query-length gain (%.2f -> %.2f)", v, shortQ, longQ)
		}
	}
	shortQ := calibW.GCUPS(cfg(xeon, core.IntrinsicSP, 32), 144)
	longQ := calibW.GCUPS(cfg(xeon, core.IntrinsicSP, 32), 5478)
	if longQ < shortQ {
		t.Errorf("Xeon intrinsic-SP decreases with query length (%.2f -> %.2f)", shortQ, longQ)
	}
	if longQ > shortQ*1.25 {
		t.Errorf("Xeon intrinsic-SP ramp too steep (%.2f -> %.2f); paper calls it practically flat", shortQ, longQ)
	}
}

func TestBlockingFig7(t *testing.T) {
	// Fig. 7: blocking seriously improves both devices at long queries,
	// and the improvement is larger on the Phi.
	ratio := func(dev *device.Model) float64 {
		blocked := calibW.GCUPS(cfg(dev, core.IntrinsicSP, dev.MaxThreads()), 5478)
		c := cfg(dev, core.IntrinsicSP, dev.MaxThreads())
		c.Unblocked = true
		unblocked := calibW.GCUPS(c, 5478)
		return blocked / unblocked
	}
	xr, pr := ratio(device.Xeon()), ratio(device.Phi())
	if xr < 1.05 {
		t.Errorf("Xeon blocking speedup %.2fx; paper reports a serious improvement", xr)
	}
	if pr < 1.3 {
		t.Errorf("Phi blocking speedup %.2fx; paper reports a serious improvement", pr)
	}
	if pr <= xr {
		t.Errorf("blocking speedup Phi %.2fx <= Xeon %.2fx; paper says Phi benefits more", pr, xr)
	}
	// Short queries fit in cache: blocking must not matter much there.
	c := cfg(device.Phi(), core.IntrinsicSP, 240)
	c.Unblocked = true
	shortUnblocked := calibW.GCUPS(c, 144)
	shortBlocked := calibW.GCUPS(cfg(device.Phi(), core.IntrinsicSP, 240), 144)
	if shortBlocked/shortUnblocked > 1.1 {
		t.Errorf("Phi blocking speedup %.2fx at M=144; working set already fits", shortBlocked/shortUnblocked)
	}
}

func TestHeteroFig8(t *testing.T) {
	hc := func(share float64) HeteroConfig {
		return HeteroConfig{
			CPU:      cfg(device.Xeon(), core.IntrinsicSP, 32),
			MIC:      cfg(device.Phi(), core.IntrinsicSP, 240),
			MICShare: share,
		}
	}
	bestShare, bestG := 0.0, 0.0
	var at0, at100 float64
	for _, share := range Fig8Shares() {
		g := calibW.HeteroAggregateGCUPS(hc(share))
		if g > bestG {
			bestG, bestShare = g, share
		}
		switch share {
		case 0:
			at0 = g
		case 1:
			at100 = g
		}
	}
	// Paper: peak 62.6 GCUPS at ~55% Phi share, close to homogeneous.
	within(t, "Fig8 peak GCUPS", bestG, 62.6, 0.10)
	if bestShare < 0.45 || bestShare > 0.65 {
		t.Errorf("Fig8 peak at %.0f%% Phi share, paper says ~55%%", bestShare*100)
	}
	// The hybrid peak is almost the sum of the individual throughputs.
	if bestG < at0+at100*0.80 {
		t.Errorf("hybrid peak %.2f far below sum of parts (%.2f + %.2f)", bestG, at0, at100)
	}
	if bestG > at0+at100 {
		t.Errorf("hybrid peak %.2f exceeds sum of parts (%.2f + %.2f)", bestG, at0, at100)
	}
}

func TestSchedulingPolicyOrdering(t *testing.T) {
	// Section IV: dynamic outperforms static significantly; guided is
	// slightly behind dynamic.
	g := func(p sched.Policy) float64 {
		c := cfg(device.Xeon(), core.IntrinsicSP, 32)
		c.Policy = p
		return calibW.AggregateGCUPS(c)
	}
	dynamic, guided, static := g(sched.Dynamic), g(sched.Guided), g(sched.Static)
	if !(dynamic > static*1.05) {
		t.Errorf("dynamic %.2f not significantly above static %.2f", dynamic, static)
	}
	if !(guided > static) {
		t.Errorf("guided %.2f not above static %.2f", guided, static)
	}
	if !(dynamic >= guided*0.999) {
		t.Errorf("dynamic %.2f below guided %.2f", dynamic, guided)
	}
	if guided < dynamic*0.80 {
		t.Errorf("guided %.2f too far below dynamic %.2f; paper says slightly minor", guided, dynamic)
	}
}

func TestSortingPreprocessingHelps(t *testing.T) {
	// Section IV [14]: pre-sorting the database by length makes
	// consecutive alignments take similar time (better packing and
	// balance).
	sorted := calibW.AggregateGCUPS(cfg(device.Phi(), core.IntrinsicSP, 240))
	c := cfg(device.Phi(), core.IntrinsicSP, 240)
	c.Unsorted = true
	unsorted := calibW.AggregateGCUPS(c)
	if sorted <= unsorted {
		t.Errorf("sorted db %.2f GCUPS <= unsorted %.2f", sorted, unsorted)
	}
}

func TestPowerAblation(t *testing.T) {
	fig := Power(calibW)
	if len(fig.Series) != 1 || len(fig.Series[0].Y) != len(Fig8Shares()) {
		t.Fatalf("power figure malformed: %+v", fig.Series)
	}
	for i, y := range fig.Series[0].Y {
		if y <= 0 || y > 1 {
			t.Errorf("GCUPS/W out of range at point %d: %v", i, y)
		}
	}
}

func TestHalfScaleCloseToFullScale(t *testing.T) {
	// GCUPS is an intensity: a half-size database should produce similar
	// throughput (the residual gap is the scheduling tail, which shrinks
	// with database size).
	if testing.Short() {
		t.Skip("extra workload in -short mode")
	}
	half := NewWorkload(0.5)
	for _, dev := range []*device.Model{device.Xeon(), device.Phi()} {
		a := half.GCUPS(cfg(dev, core.IntrinsicSP, dev.MaxThreads()), 1000)
		b := calibW.GCUPS(cfg(dev, core.IntrinsicSP, dev.MaxThreads()), 1000)
		if a < b*0.85 || a > b*1.10 {
			t.Errorf("%s: half-scale %.2f vs full-scale %.2f GCUPS", dev.Short, a, b)
		}
	}
}

func TestTransferImpactShape(t *testing.T) {
	fig := TransferImpact(calibW)
	if len(fig.Series) != 2 {
		t.Fatalf("%d series", len(fig.Series))
	}
	perQuery, resident := fig.Series[0], fig.Series[1]
	// Transfers amortise with query length: the share must decrease.
	if perQuery.Y[0] <= perQuery.Y[len(perQuery.Y)-1] {
		t.Errorf("per-query transfer share does not decrease: %v", perQuery.Y)
	}
	// The resident-database policy always transfers less.
	for i := range perQuery.Y {
		if resident.Y[i] >= perQuery.Y[i] {
			t.Errorf("resident share %v >= per-query %v at point %d", resident.Y[i], perQuery.Y[i], i)
		}
		if perQuery.Y[i] < 0 || perQuery.Y[i] > 100 {
			t.Errorf("share out of range: %v", perQuery.Y[i])
		}
	}
	// Transfers are a visible cost for short queries and negligible for
	// the longest ones.
	if perQuery.Y[0] < 1 {
		t.Errorf("shortest-query transfer share %v%% suspiciously small", perQuery.Y[0])
	}
	if perQuery.Y[len(perQuery.Y)-1] > 2 {
		t.Errorf("longest-query transfer share %v%% suspiciously large", perQuery.Y[len(perQuery.Y)-1])
	}
}
