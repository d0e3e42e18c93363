package offload

import (
	"testing"

	"heterosw/internal/device"
)

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

func TestRegionSecondsPhiVsHost(t *testing.T) {
	phi := device.Phi()
	xeon := device.Xeon()
	compute := 2.0
	// Host regions add no transfer time.
	if got := RegionSeconds(xeon, 1<<30, 1<<20, compute); got != compute {
		t.Errorf("host region = %v, want %v", got, compute)
	}
	// Phi regions add both directions plus latency.
	got := RegionSeconds(phi, 6_000_000_000, 0, compute)
	want := compute + 1.0 + 2*phi.PCIeLatencySec
	if got < want*0.99 || got > want*1.01 {
		t.Errorf("phi region = %v, want ~%v", got, want)
	}
}
