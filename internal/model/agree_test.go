package model

import (
	"testing"

	"heterosw/internal/core"
	"heterosw/internal/datagen"
	"heterosw/internal/device"
	"heterosw/internal/sched"
)

// The figures and the planner price a one-device search through the same
// pipeline. They differ only in the lanes they price: the figures price the
// paper's kernels at the device's 16-bit width, the planner the serving
// ladder, which starts the intrinsic variants in byte lanes. So the scalar
// and guided variants must agree bit for bit and the intrinsic ones must
// not; a fork of either pipeline fails here.
func TestFiguresAgreeWithPlanner(t *testing.T) {
	const scale = 0.01
	w := NewWorkload(scale)
	lengths := datagen.Lengths(datagen.SwissProtConfig(scale))
	for _, dev := range []*device.Model{device.Xeon(), device.Phi()} {
		for _, m := range []int{144, 1000, 5478} {
			for _, v := range core.Variants() {
				fig, _ := w.SimSearch(Config{Dev: dev, Variant: v, Policy: sched.Dynamic}, m)
				opt := defaultSearchOptions()
				opt.Variant = v
				p, err := PlanLengths(lengths, m, []*device.Model{dev}, core.DispatchOptions{Search: opt})
				if err != nil {
					t.Fatal(err)
				}
				if same := fig == p.Makespan; same != (v.Vec() != core.VecIntrinsic) {
					t.Errorf("%s %v q=%d: figures %v s, planner %v s", dev.Short, v, m, fig, p.Makespan)
				}
			}
		}
	}
}
