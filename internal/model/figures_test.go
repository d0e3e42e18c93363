package model

import (
	"testing"

	"heterosw/internal/datagen"
	"heterosw/internal/device"
)

func TestNewWorkloadStats(t *testing.T) {
	w := NewWorkload(0.02)
	scale := 0.02
	want := int(scale*float64(datagen.SwissProtSequences) + 0.5)
	if w.Sequences() != want {
		t.Fatalf("sequences = %d, want %d", w.Sequences(), want)
	}
	mean := float64(w.Residues()) / float64(w.Sequences())
	if mean < 300 || mean > 420 {
		t.Fatalf("mean length %.1f implausible for Swiss-Prot", mean)
	}
	if len(w.Queries()) != 20 {
		t.Fatalf("%d queries", len(w.Queries()))
	}
	if w.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestAllFiguresWellFormed(t *testing.T) {
	w := NewWorkload(0.02)
	figs := All(w)
	if len(figs) != 10 {
		t.Fatalf("All returned %d figures, want 10", len(figs))
	}
	seen := make(map[string]bool)
	for _, f := range figs {
		if f.ID == "" || f.Title == "" || f.XLabel == "" || f.YLabel == "" {
			t.Errorf("figure %q missing metadata", f.ID)
		}
		if seen[f.ID] {
			t.Errorf("duplicate figure id %q", f.ID)
		}
		seen[f.ID] = true
		if len(f.Series) == 0 {
			t.Errorf("figure %q has no series", f.ID)
		}
		for _, s := range f.Series {
			if len(s.X) != len(s.Y) {
				t.Errorf("figure %q series %q: %d x vs %d y", f.ID, s.Label, len(s.X), len(s.Y))
			}
			if len(s.X) == 0 {
				t.Errorf("figure %q series %q empty", f.ID, s.Label)
			}
			for i, y := range s.Y {
				if y < 0 {
					t.Errorf("figure %q series %q: negative value at %d", f.ID, s.Label, i)
				}
			}
		}
	}
}

func TestThreadScalingFigureSeriesCount(t *testing.T) {
	w := NewWorkload(0.02)
	f3 := Fig3(w)
	if len(f3.Series) != 6 {
		t.Fatalf("Fig3 has %d series, want 6 variants", len(f3.Series))
	}
	if len(f3.Series[0].X) != len(XeonThreadCounts()) {
		t.Fatalf("Fig3 x-points %d", len(f3.Series[0].X))
	}
	f5 := Fig5(w)
	if len(f5.Series[0].X) != len(PhiThreadCounts()) {
		t.Fatalf("Fig5 x-points %d", len(f5.Series[0].X))
	}
}

func TestByID(t *testing.T) {
	w := NewWorkload(0.02)
	for _, id := range []string{"fig3", "4", "fig5", "6", "fig7", "8", "eff", "sched", "power", "transfer"} {
		f, err := ByID(w, id)
		if err != nil || f == nil {
			t.Errorf("ByID(%q): %v", id, err)
		}
	}
	if _, err := ByID(w, "fig99"); err == nil {
		t.Error("ByID accepted junk id")
	}
}

func TestFig8SharesGrid(t *testing.T) {
	shares := Fig8Shares()
	if len(shares) != 21 || shares[0] != 0 || shares[20] != 1 {
		t.Fatalf("bad share grid: %v", shares)
	}
}

func TestSimHeteroDegenerateShares(t *testing.T) {
	w := NewWorkload(0.02)
	h := HeteroConfig{
		CPU: cfg(devXeon(), 0, 32),
		MIC: cfg(devPhi(), 0, 240),
	}
	h.MICShare = 0
	sec0, cells := w.SimHetero(h, 1000)
	if sec0 <= 0 || cells != 1000*w.Residues() {
		t.Fatalf("share 0: %v %v", sec0, cells)
	}
	cpuOnly, _ := w.SimSearch(h.CPU, 1000)
	if sec0 != cpuOnly {
		t.Fatalf("share 0 time %v != cpu-only %v", sec0, cpuOnly)
	}
	h.MICShare = 1
	sec1, _ := w.SimHetero(h, 1000)
	micOnly, _ := w.SimSearch(h.MIC, 1000)
	if sec1 != micOnly {
		t.Fatalf("share 1 time %v != mic-only %v", sec1, micOnly)
	}
}

func devXeon() *device.Model { return device.Xeon() }
func devPhi() *device.Model  { return device.Phi() }
